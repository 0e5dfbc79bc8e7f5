package qemusim

import (
	"fmt"
	"math/rand"
	"slices"
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
	if got := vm.resident(); got != guestCachePages {
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

// checkConsistency checks the guest cache's storage: the LRU ring's links
// are symmetric and it holds every resident page once, the chunk index
// maps exactly the ring's pages to their slots, each chunk's count matches
// its non-zero slots, no empty chunk stays in the directory, the memo
// names a live chunk or none, and the dirty count matches the dirty bits.
func (vm *VM) checkConsistency() error {
	ring, dirty := int64(0), int64(0)
	for s := vm.pages[0].next; s != 0; s = vm.pages[s].next {
		pg := vm.pages[s]
		if vm.pages[pg.next].prev != s || vm.pages[pg.prev].next != s {
			return fmt.Errorf("slot %d (page %d): ring links not symmetric", s, pg.idx)
		}
		if ring++; ring > vm.resident() {
			return fmt.Errorf("ring longer than the %d resident pages", vm.resident())
		}
		if c := vm.chunkOf[pg.idx>>chunkShift]; vm.chunks[c].slot[pg.idx&(chunkPages-1)] != s {
			return fmt.Errorf("page %d in slot %d is not indexed there", pg.idx, s)
		}
		if pg.dirty {
			dirty++
		}
	}
	if ring != vm.resident() {
		return fmt.Errorf("ring holds %d pages, %d resident", ring, vm.resident())
	}
	if dirty != vm.dirty {
		return fmt.Errorf("%d dirty pages, dirty count %d", dirty, vm.dirty)
	}
	if vm.chunks[0] != (guestChunk{}) {
		return fmt.Errorf("chunk 0 holds pages: %+v", vm.chunks[0])
	}
	indexed := int64(0)
	for key, c := range vm.chunkOf {
		n := int32(0)
		for i, s := range vm.chunks[c].slot {
			if s == 0 {
				continue
			}
			if n++; vm.pages[s].idx != key<<chunkShift+int64(i) {
				return fmt.Errorf("chunk %d maps page %d to slot %d, which holds page %d", key, key<<chunkShift+int64(i), s, vm.pages[s].idx)
			}
		}
		if n == 0 || n != vm.chunks[c].n {
			return fmt.Errorf("chunk %d: %d pages, count %d", key, n, vm.chunks[c].n)
		}
		indexed += int64(n)
	}
	if indexed != ring {
		return fmt.Errorf("chunks index %d pages, ring holds %d", indexed, ring)
	}
	if vm.memo != vm.chunkOf[vm.memoKey] {
		return fmt.Errorf("memo names chunk entry %d for chunk %d, directory has %d", vm.memo, vm.memoKey, vm.chunkOf[vm.memoKey])
	}
	return nil
}

// refGuestCache is the reference guest cache: each resident page's dirty
// bit in a map, and the LRU order in a slice, least recently used first.
type refGuestCache struct {
	capacity int
	dirty    map[int64]bool
	lru      []int64
}

func (r *refGuestCache) touch(idx int64) {
	i := slices.Index(r.lru, idx)
	r.lru = append(slices.Delete(r.lru, i, i+1), idx)
}

// insert evicts least recently used clean pages until the cache has room
// or holds only dirty pages, and caches idx.
func (r *refGuestCache) insert(idx int64, dirty bool) {
	for len(r.lru) >= r.capacity {
		i := slices.IndexFunc(r.lru, func(x int64) bool { return !r.dirty[x] })
		if i < 0 {
			break
		}
		delete(r.dirty, r.lru[i])
		r.lru = slices.Delete(r.lru, i, i+1)
	}
	r.dirty[idx] = dirty
	r.lru = append(r.lru, idx)
}

// read returns how many pages a read of pages first..last fetches from the
// host. A miss run is fetched, and its pages cached, when the next hit or
// the end of the range is reached; the hit then moves to the back, unless
// the run's inserts evicted it.
func (r *refGuestCache) read(first, last int64) (fetched int64) {
	var run []int64
	fill := func() {
		fetched += int64(len(run))
		for _, idx := range run {
			if _, ok := r.dirty[idx]; !ok {
				r.insert(idx, false)
			}
		}
		run = run[:0]
	}
	for idx := first; idx <= last; idx++ {
		if _, ok := r.dirty[idx]; !ok {
			run = append(run, idx)
			continue
		}
		fill()
		if _, ok := r.dirty[idx]; ok {
			r.touch(idx)
		}
	}
	fill()
	return fetched
}

func (r *refGuestCache) write(first, last int64) {
	for idx := first; idx <= last; idx++ {
		if _, ok := r.dirty[idx]; ok {
			r.dirty[idx] = true
			r.touch(idx)
			continue
		}
		r.insert(idx, true)
	}
}

// takeDirty cleans up to max dirty pages (all if max<=0) in LRU order and
// returns them sorted.
func (r *refGuestCache) takeDirty(max int) []int64 {
	var batch []int64
	for _, idx := range r.lru {
		if r.dirty[idx] {
			batch = append(batch, idx)
			r.dirty[idx] = false
			if max > 0 && len(batch) >= max {
				break
			}
		}
	}
	slices.Sort(batch)
	return batch
}

// checkMatchesRef compares vm's guest cache with the reference: the LRU
// order (and so the resident set), every dirty bit and the dirty count,
// and then the storage's own invariants.
func checkMatchesRef(vm *VM, ref *refGuestCache) error {
	var order []int64
	for s := vm.pages[0].next; s != 0 && len(order) <= len(ref.lru); s = vm.pages[s].next {
		pg := vm.pages[s]
		if pg.dirty != ref.dirty[pg.idx] {
			return fmt.Errorf("page %d dirty = %v, want %v", pg.idx, pg.dirty, ref.dirty[pg.idx])
		}
		order = append(order, pg.idx)
	}
	if !slices.Equal(order, ref.lru) {
		return fmt.Errorf("LRU order\n got %v\nwant %v", order, ref.lru)
	}
	dirty := int64(0)
	for _, d := range ref.dirty {
		if d {
			dirty++
		}
	}
	if vm.dirty != dirty {
		return fmt.Errorf("dirty count %d, want %d", vm.dirty, dirty)
	}
	return vm.checkConsistency()
}

// TestGuestCacheMatchesReference runs random guest reads, writes and flush
// batches through a small guest cache, so that eviction is frequent and
// the cache sometimes overfills with dirty pages, and compares it with the
// reference model after every step: LRU order, dirty bits and count, host
// pages read, and each flush batch in sorted order (which fixes the host
// write runs). Pages come from two regions far apart on the guest disk,
// each a few chunks wide.
func TestGuestCacheMatchesReference(t *testing.T) {
	const span = 5 * chunkPages
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := schedtest.Kernel(t, stoken.Factory, nil)
		cfg := DefaultConfig("")
		cfg.GuestDirtyMax = 1 << 40 // no flusher runs to unthrottle a writer
		vm := newVM(k, "vm0", cfg)
		ref := &refGuestCache{capacity: 8 + rng.Intn(48), dirty: make(map[int64]bool)}
		vm.capacity = int64(ref.capacity)
		var err error
		k.Env.Go("guest", func(p *sim.Proc) {
			for step := 0; step < 300 && err == nil; step++ {
				first := rng.Int63n(span)
				if rng.Intn(4) == 0 {
					first += diskBytes/cache.PageSize - 2*span
				}
				last := first + rng.Int63n(40)
				if rng.Intn(3) == 0 {
					last = first
				}
				switch op := rng.Intn(10); {
				case op < 4:
					before := vm.HostReads()
					vm.Read(p, first*cache.PageSize, (last-first+1)*cache.PageSize)
					if got, want := (vm.HostReads()-before)/cache.PageSize, ref.read(first, last); got != want {
						err = fmt.Errorf("read %d..%d fetched %d pages, want %d", first, last, got, want)
					}
				case op < 8:
					vm.Write(p, first*cache.PageSize, (last-first+1)*cache.PageSize)
					ref.write(first, last)
				case op < 9:
					max := rng.Intn(12)
					if got, want := vm.takeDirty(nil, max), ref.takeDirty(max); !slices.Equal(got, want) {
						err = fmt.Errorf("flush batch of %d\n got %v\nwant %v", max, got, want)
					}
				default:
					max := rng.Intn(12)
					before := vm.HostWrites()
					want := ref.takeDirty(max)
					vm.flushDirty(p, max)
					if got := (vm.HostWrites() - before) / cache.PageSize; got != int64(len(want)) {
						err = fmt.Errorf("flush of %d wrote %d pages, want %v", max, got, want)
					}
				}
				if err == nil {
					err = checkMatchesRef(vm, ref)
				}
				if err != nil {
					err = fmt.Errorf("seed %d step %d: %w", seed, step, err)
				}
			}
		})
		k.Run(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmRangeZeroAllocs reads a 16 MiB range into the guest cache, then
// requires that re-reading it, and writing it, allocate nothing.
func TestWarmRangeZeroAllocs(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	cfg := DefaultConfig("")
	cfg.GuestDirtyMax = 1 << 40 // the writes do not wake the flusher
	vm := Launch(k, "vm0", cfg)
	reads, writes := -1.0, -1.0
	k.Env.Go("guest", func(p *sim.Proc) {
		vm.Read(p, 0, 16<<20)
		reads = testing.AllocsPerRun(10, func() { vm.Read(p, 0, 16<<20) })
		writes = testing.AllocsPerRun(10, func() { vm.Write(p, 0, 16<<20) })
	})
	k.Run(time.Second)
	if reads != 0 || writes != 0 {
		t.Fatalf("warm 16 MiB read allocated %.1f objects, write %.1f; want 0", reads, writes)
	}
}

// TestChunkArenaBounded scatters single-page writes over the whole guest
// disk through a small cache, so nearly every page has a chunk of its own,
// and requires that the chunk arena never holds more chunks than there
// are resident pages: emptied chunks are freed and reused.
func TestChunkArenaBounded(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	cfg := DefaultConfig("")
	cfg.GuestDirtyMax = 64
	vm := Launch(k, "vm0", cfg)
	vm.capacity = 256
	var err error
	done := false
	k.Env.Go("guest", func(p *sim.Proc) {
		for i := 0; i < 2000 && err == nil; i++ {
			vm.Write(p, vm.guestRandOff(p), cache.PageSize)
			if chunks := int64(len(vm.chunks) - 1); chunks > vm.resident() {
				err = fmt.Errorf("write %d: chunk arena holds %d chunks for %d resident pages", i, chunks, vm.resident())
			} else if e := vm.checkConsistency(); e != nil {
				err = fmt.Errorf("write %d: %w", i, e)
			}
		}
		done = true
	})
	k.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("writer did not finish")
	}
	if vm.resident() < vm.capacity {
		t.Fatalf("%d pages resident; the cache never filled to %d", vm.resident(), vm.capacity)
	}
}
