package qemusim

import (
	"testing"
	"time"

	"splitio/internal/cache"
	"splitio/internal/sched/stoken"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
)

func TestGuestCacheHitsAvoidHost(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	cfg := DefaultConfig("")
	vm := Launch(k, "vm0", cfg)
	k.Env.Go("guest", func(p *sim.Proc) {
		vm.Read(p, 0, 8<<20) // cold: host reads
		vm.Read(p, 0, 8<<20) // warm: guest cache
	})
	k.Run(time.Minute)
	if vm.HostReads() != 8<<20 {
		t.Fatalf("host reads = %d, want one cold pass", vm.HostReads())
	}
	if vm.BytesRead() != 16<<20 {
		t.Fatalf("guest reads = %d", vm.BytesRead())
	}
}

// TestGuestCacheEvictsLRU overfills the 128 MiB guest cache: reading
// 132 MiB evicts the oldest 4 MiB of clean pages, so re-reading them goes
// back to the host.
func TestGuestCacheEvictsLRU(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	vm := Launch(k, "vm0", DefaultConfig(""))
	k.Env.Go("guest", func(p *sim.Proc) {
		vm.Read(p, 0, 132<<20)
		vm.Read(p, 0, 4<<20)
	})
	k.Run(time.Minute)
	if got := int64(len(vm.pages)); got != guestCachePages {
		t.Fatalf("guest cache holds %d pages, want full at %d", got, guestCachePages)
	}
	if vm.HostReads() != 136<<20 {
		t.Fatalf("host reads = %d, want %d (evicted pages re-read)", vm.HostReads(), int64(136<<20))
	}
}

func TestGuestWritesFlushToHost(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	vm := Launch(k, "vm0", DefaultConfig(""))
	k.Env.Go("guest", func(p *sim.Proc) {
		vm.Write(p, 0, 4<<20)
	})
	k.Run(time.Minute)
	if vm.HostWrites() != 4<<20 {
		t.Fatalf("host writes = %d, want flushed 4MB", vm.HostWrites())
	}
	if k.Cache.DirtyPagesCount() != 0 && k.Cache.PdflushEnabled() {
		t.Fatal("host never drained")
	}
}

func TestGuestOverwriteAbsorbed(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	vm := Launch(k, "vm0", DefaultConfig(""))
	k.Env.Go("guest", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			vm.Write(p, 0, 1<<20)
			p.Sleep(time.Millisecond)
		}
	})
	k.Run(time.Minute)
	// 50 MB written by the guest, but overwrites coalesce in the guest
	// cache: host sees far less.
	if vm.BytesWritten() != 50<<20 {
		t.Fatalf("guest wrote %d", vm.BytesWritten())
	}
	if vm.HostWrites() > 10<<20 {
		t.Fatalf("host writes = %d; guest cache not absorbing overwrites", vm.HostWrites())
	}
}

func TestGuestFsync(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	vm := Launch(k, "vm0", DefaultConfig(""))
	var synced bool
	k.Env.Go("guest", func(p *sim.Proc) {
		vm.Write(p, 0, 1<<20)
		vm.Fsync(p)
		synced = true
	})
	k.Run(time.Minute)
	if !synced {
		t.Fatal("guest fsync never completed")
	}
	if vm.HostWrites() < 1<<20 {
		t.Fatal("fsync did not flush guest dirty data")
	}
}

func TestGuestDirtyThrottle(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	cfg := DefaultConfig("")
	cfg.GuestDirtyMax = 1 << 20 / cache.PageSize
	vm := Launch(k, "vm0", cfg)
	var wrote int64
	k.Env.Go("guest", func(p *sim.Proc) {
		for {
			vm.Write(p, vm.guestRandOff(p), 4096)
			wrote += 4096
		}
	})
	k.Run(5 * time.Second)
	// The guest writer must be paced by the flush path, not run at memory
	// speed (which would be many GB in 5s).
	if wrote > 1<<30 {
		t.Fatalf("guest writer unthrottled: %d bytes", wrote)
	}
}

// guestRandOff gives a deterministic pseudo-random page-aligned offset.
func (vm *VM) guestRandOff(p *sim.Proc) int64 {
	pages := diskBytes / cache.PageSize
	return vm.k.Env.Rand().Int63n(pages) * cache.PageSize
}

func TestAccountPlumbing(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	vm := Launch(k, "vm0", DefaultConfig("tenant1"))
	if vm.Process().Ctx.Account != "tenant1" {
		t.Fatal("account not set on VM process")
	}
}
