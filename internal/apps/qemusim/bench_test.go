// Microbenchmarks for the guest page cache, which `make microbench` tracks:
// warm ranged reads and writes of a resident range (Fig 20's read-mem and
// write-mem guests), sequential writes of absent runs into a full cache, and
// single-page writes at random offsets into a full cache (its write-rand
// guest). The write benchmarks take the guest's dirty pages a flush batch at
// a time, so that no host write runs inside the timed loop.
package qemusim

import (
	"math/rand"
	"testing"
	"time"

	"splitio/internal/cache"
	"splitio/internal/sched/stoken"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
)

// runGuest runs fn as the guest process of a fresh VM with no flusher and
// no dirty limit, and returns once fn does.
func runGuest(b *testing.B, fn func(p *sim.Proc, vm *VM)) {
	k := schedtest.Kernel(b, stoken.Factory, nil)
	cfg := DefaultConfig("")
	cfg.GuestDirtyMax = 1 << 40
	vm := newVM(k, "vm0", cfg)
	done := false
	k.Env.Go("guest", func(p *sim.Proc) {
		fn(p, vm)
		done = true
	})
	for !done {
		k.Run(time.Second)
	}
}

// BenchmarkGuestReadHit reads a resident 16 MiB range 1 MiB at a time.
func BenchmarkGuestReadHit(b *testing.B) {
	const span = 16 << 20
	runGuest(b, func(p *sim.Proc, vm *VM) {
		vm.Read(p, 0, span)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Read(p, int64(i)%(span>>20)<<20, 1<<20)
		}
		b.StopTimer()
	})
}

// BenchmarkGuestWriteHit rewrites a resident 16 MiB range 1 MiB at a time.
func BenchmarkGuestWriteHit(b *testing.B) {
	const span = 16 << 20
	runGuest(b, func(p *sim.Proc, vm *VM) {
		vm.Write(p, 0, span)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Write(p, int64(i)%(span>>20)<<20, 1<<20)
		}
		b.StopTimer()
	})
}

// BenchmarkGuestSeqWrite writes absent 1 MiB runs, one after another across
// the guest disk, into a full guest cache: each write evicts the least
// recently used clean pages, and the oldest dirty pages are taken clean a
// flush batch at a time.
func BenchmarkGuestSeqWrite(b *testing.B) {
	const run = 1 << 20
	runGuest(b, func(p *sim.Proc, vm *VM) {
		fill := guestCachePages * cache.PageSize
		vm.Read(p, 0, fill)
		var batch []int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Write(p, (fill+int64(i)*run)%diskBytes, run)
			for vm.dirty >= int64(flushBatch) {
				batch = vm.takeDirty(batch, flushBatch)
			}
		}
		b.StopTimer()
	})
}

// BenchmarkGuestRandWrite writes single pages at random offsets into a full
// guest cache: each write evicts the least recently used clean page, and
// every flushBatch writes the oldest dirty pages are taken clean.
func BenchmarkGuestRandWrite(b *testing.B) {
	runGuest(b, func(p *sim.Proc, vm *VM) {
		vm.Read(p, 0, guestCachePages*cache.PageSize)
		if vm.resident != guestCachePages {
			b.Fatalf("guest cache holds %d pages after the fill, want %d", vm.resident, guestCachePages)
		}
		rng := rand.New(rand.NewSource(1))
		var batch []int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Write(p, rng.Int63n(diskBytes/cache.PageSize)*cache.PageSize, cache.PageSize)
			if vm.dirty >= int64(flushBatch) {
				batch = vm.takeDirty(batch, flushBatch)
			}
		}
		b.StopTimer()
	})
}
