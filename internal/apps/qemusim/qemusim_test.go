package qemusim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
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
	if got := vm.resident; got != guestCachePages {
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

// checkConsistency checks the guest cache's storage: each indexed chunk
// names its chunk number, holds pages, has its dirty pages among them and
// lists ring nodes that hold together exactly its pages; the ring passes
// its own check (cache.RingCheck); the resident and dirty counts match the
// chunks; entry 0 stays empty, freed entries are empty and fill the arena
// with the indexed ones; and the memo names a live chunk or none.
func (vm *VM) checkConsistency() error {
	ring := vm.ring.Check()
	inUse := make([]bool, len(vm.chunks))
	var resident, dirty int64
	keys := make([]int64, 0, len(vm.chunkOf))
	for key := range vm.chunkOf {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		h := vm.chunkOf[key]
		if h <= 0 || int(h) >= len(vm.chunks) || inUse[h] {
			return fmt.Errorf("chunk %d has entry %d, outside the arena or another chunk's", key, h)
		}
		inUse[h] = true
		ch := vm.chunks[h]
		switch {
		case ch.key != key:
			return fmt.Errorf("chunk %d has the entry of chunk %d", key, ch.key)
		case ch.present == 0:
			return fmt.Errorf("chunk %d holds no page", key)
		case ch.dirty&^ch.present != 0:
			return fmt.Errorf("chunk %d dirty mask %#x outside present mask %#x", key, ch.dirty, ch.present)
		}
		held, err := ring.Chunk(h, ch.nodes)
		if err != nil {
			return fmt.Errorf("chunk %d %w", key, err)
		}
		if held != ch.present {
			return fmt.Errorf("chunk %d nodes hold pages %#x, its pages are %#x", key, held, ch.present)
		}
		resident += int64(bits.OnesCount64(ch.present))
		dirty += int64(bits.OnesCount64(ch.dirty))
	}
	if err := ring.Done(); err != nil {
		return err
	}
	if resident != vm.resident || dirty != vm.dirty {
		return fmt.Errorf("chunks hold %d pages, %d dirty; counts say %d and %d", resident, dirty, vm.resident, vm.dirty)
	}
	if ch := vm.chunks[0]; ch.key != 0 || ch.present != 0 || ch.dirty != 0 || len(ch.nodes) != 0 {
		return fmt.Errorf("chunk entry 0 is not empty: %+v", ch)
	}
	for _, h := range vm.freeChunks {
		if h <= 0 || int(h) >= len(vm.chunks) || inUse[h] {
			return fmt.Errorf("freed entry %d is outside the arena, in use or freed twice", h)
		}
		inUse[h] = true
		if ch := vm.chunks[h]; ch.key != 0 || ch.present != 0 || ch.dirty != 0 || len(ch.nodes) != 0 {
			return fmt.Errorf("freed entry %d is not empty: %+v", h, ch)
		}
	}
	if len(keys)+len(vm.freeChunks) != len(vm.chunks)-1 {
		return fmt.Errorf("%d chunks in use and %d freed, the arena holds %d", len(keys), len(vm.freeChunks), len(vm.chunks)-1)
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

	// Coverage counts: inserts that found every resident page dirty, with
	// the cache full; written pages that were resident when their write
	// began and were evicted by its own inserts before it reached them; and
	// read pages that a later insert of their own miss run evicted.
	allDirty, evictedAhead, selfEvicted int
}

func (r *refGuestCache) touch(idx int64) {
	i := slices.Index(r.lru, idx)
	r.lru = append(slices.Delete(r.lru, i, i+1), idx)
}

// insert evicts least recently used clean pages until the cache has room
// or holds only dirty pages, and caches idx.
func (r *refGuestCache) insert(idx int64, dirty bool) {
	for len(r.lru) >= r.capacity {
		i := r.oldestClean()
		if i < 0 {
			r.allDirty++
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
		for _, idx := range run {
			if _, ok := r.dirty[idx]; !ok {
				r.selfEvicted++
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
	var resident []int64
	for idx := first; idx <= last; idx++ {
		if _, ok := r.dirty[idx]; ok {
			resident = append(resident, idx)
		}
	}
	for idx := first; idx <= last; idx++ {
		if _, ok := r.dirty[idx]; ok {
			r.dirty[idx] = true
			r.touch(idx)
			continue
		}
		if _, found := slices.BinarySearch(resident, idx); found {
			r.evictedAhead++
		}
		r.insert(idx, true)
	}
}

// oldestClean returns the LRU position of the least recently used clean
// page, or -1 if every page is dirty.
func (r *refGuestCache) oldestClean() int {
	return slices.IndexFunc(r.lru, func(x int64) bool { return !r.dirty[x] })
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
// and then the storage's own invariants. The ring's page order is each
// node's pages in index order, node after node.
func checkMatchesRef(vm *VM, ref *refGuestCache) error {
	var order []int64
	for n := vm.ring.Next(0); n != 0 && len(order) <= len(ref.lru); n = vm.ring.Next(n) {
		h, mask := vm.ring.Node(n)
		ch := vm.chunks[h]
		for m := mask; m != 0; m &= m - 1 {
			idx := ch.key<<cache.ChunkShift + int64(bits.TrailingZeros64(m))
			if dirty := ch.dirty&(m&-m) != 0; dirty != ref.dirty[idx] {
				return fmt.Errorf("page %d dirty = %v, want %v", idx, dirty, ref.dirty[idx])
			}
			order = append(order, idx)
		}
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
// each a few chunks wide. An op covers up to three chunks, and every third
// cache holds a few whole chunks. One write in four starts before the least
// recently used clean page and runs past it, so that its inserts can evict
// that page before the write reaches it. The test requires that this
// happened at least once, as did inserts that found the full cache all
// dirty and a miss run whose later inserts evicted its own earlier pages.
func TestGuestCacheMatchesReference(t *testing.T) {
	const span = 5 * cache.ChunkPages
	var allDirty, evictedAhead, selfEvicted int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := schedtest.Kernel(t, stoken.Factory, nil)
		cfg := DefaultConfig("")
		cfg.GuestDirtyMax = 1 << 40 // no flusher runs to unthrottle a writer
		vm := newVM(k, "vm0", cfg)
		ref := &refGuestCache{capacity: 8 + rng.Intn(48), dirty: make(map[int64]bool)}
		if seed%3 == 0 {
			ref.capacity = 2*cache.ChunkPages + rng.Intn(3*cache.ChunkPages)
		}
		vm.capacity = int64(ref.capacity)
		var err error
		k.Env.Go("guest", func(p *sim.Proc) {
			for step := 0; step < 300 && err == nil; step++ {
				first := rng.Int63n(span)
				if rng.Intn(4) == 0 {
					first += diskBytes/cache.PageSize - 2*span
				}
				last := first + rng.Int63n(40)
				switch rng.Intn(3) {
				case 0:
					last = first
				case 1:
					last = first + rng.Int63n(3*cache.ChunkPages)
				}
				switch op := rng.Intn(10); {
				case op < 4:
					before := vm.HostReads()
					vm.Read(p, first*cache.PageSize, (last-first+1)*cache.PageSize)
					if got, want := (vm.HostReads()-before)/cache.PageSize, ref.read(first, last); got != want {
						err = fmt.Errorf("read %d..%d fetched %d pages, want %d", first, last, got, want)
					}
				case op < 8:
					if i := ref.oldestClean(); i >= 0 && op == 7 {
						q := ref.lru[i]
						first = max(q-1-rng.Int63n(cache.ChunkPages), 0)
						last = q + rng.Int63n(cache.ChunkPages)
					}
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
		allDirty += ref.allDirty
		evictedAhead += ref.evictedAhead
		selfEvicted += ref.selfEvicted
	}
	t.Logf("%d inserts found the full cache all dirty; %d written pages were evicted by their own write, %d read pages by their own miss run",
		allDirty, evictedAhead, selfEvicted)
	if allDirty == 0 || evictedAhead == 0 || selfEvicted == 0 {
		t.Fatal("no step covered an all-dirty cache, a write evicting its own later pages, or a miss run evicting its own pages")
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
			if chunks := int64(len(vm.chunks) - 1); chunks > vm.resident {
				err = fmt.Errorf("write %d: chunk arena holds %d chunks for %d resident pages", i, chunks, vm.resident)
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
	if vm.resident < vm.capacity {
		t.Fatalf("%d pages resident; the cache never filled to %d", vm.resident, vm.capacity)
	}
}

// TestGuestDenseResidencyMemory guards the guest cache's memory when
// residency is dense, as under a sequential writer, to the host cache's
// bound: a chunk written whole is one ring node, so a resident page costs a
// 64th of its chunk and of its node.
func TestGuestDenseResidencyMemory(t *testing.T) {
	k := schedtest.Kernel(t, stoken.Factory, nil)
	cfg := DefaultConfig("")
	cfg.GuestDirtyMax = 1 << 40 // nothing flushes
	vm := newVM(k, "vm0", cfg)
	const pages = 64 << 20 / cache.PageSize
	perPage := int64(-1)
	k.Env.Go("guest", func(p *sim.Proc) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		vm.Write(p, 0, pages*cache.PageSize)
		runtime.GC()
		runtime.ReadMemStats(&after)
		perPage = (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / pages
	})
	k.Run(time.Minute)
	if vm.resident != pages || vm.dirty != pages {
		t.Fatalf("%d pages resident, %d dirty; want all %d of the write", vm.resident, vm.dirty, pages)
	}
	t.Logf("%d heap bytes per resident page", perPage)
	if perPage > 8 {
		t.Fatalf("%d heap bytes per densely resident page, want at most 8", perPage)
	}
	runtime.KeepAlive(vm)
}
