// Package cache simulates the page cache: per-file pages, dirty tracking
// with cross-layer cause tags, an LRU for clean pages, dirty-ratio write
// throttling, and the writeback daemon (pdflush). It exposes the memory-
// level hooks of the split framework (buffer-dirty and buffer-free,
// paper §4.2) and accounts tag memory for the space-overhead experiment
// (Fig 10).
package cache

import (
	"container/heap"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// PageSize is the cache page size in bytes.
const PageSize = 4096

// Config sets cache geometry and writeback policy.
type Config struct {
	// TotalPages is the size of RAM in pages.
	TotalPages int64
	// DirtyRatio is the fraction of RAM that may be dirty before writers
	// are throttled (Linux vm.dirty_ratio).
	DirtyRatio float64
	// DirtyBackgroundRatio is the fraction at which pdflush starts
	// writeback (Linux vm.dirty_background_ratio).
	DirtyBackgroundRatio float64
	// WritebackInterval is pdflush's periodic wake-up (Linux's 5 s).
	WritebackInterval time.Duration
	// WritebackBatch is the number of pages flushed per file per round.
	WritebackBatch int
}

// DefaultConfig models a machine with 2 GiB of RAM and Linux defaults.
func DefaultConfig() Config {
	return Config{
		TotalPages:           2 << 30 / PageSize,
		DirtyRatio:           0.20,
		DirtyBackgroundRatio: 0.10,
		WritebackInterval:    5 * time.Second,
		WritebackBatch:       1024,
	}
}

// MemHooks are the split framework's memory-level notifications. Any field
// may be nil.
type MemHooks struct {
	// BufferDirty fires when a page is dirtied. prev is the previous cause
	// set when an already-dirty buffer is overwritten (paper: the scheduler
	// may shift responsibility to the last writer), empty for a fresh dirty.
	BufferDirty func(ino, idx int64, now causes.Set, prev causes.Set)
	// BufferFree fires when a dirty page is discarded before writeback.
	BufferFree func(ino, idx int64, c causes.Set)
}

// chunkShift sets the page-table chunk size: a file's pages are grouped in
// aligned runs of 1<<chunkShift pages, so one chunk's state fits a uint64.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// page is one resident page. A clean page sits on the cache's LRU ring; a
// dirty page is off the ring and its bit is set in its chunk's dirty mask.
// Pages come from the cache's slab free list.
type page struct {
	ch         *chunk
	idx        int64
	wcauses    causes.Set
	prev, next *page // LRU ring links, nil while dirty; next links the free list
}

// chunk is the state of one aligned run of chunkPages pages of a file. Bit b
// of present (dirty) is page key<<chunkShift + b. pages holds only the
// resident pages, in index order, so a file read at random costs one slot
// per resident page rather than a whole chunk: page b is
// pages[rank(present, b)].
type chunk struct {
	file           *file
	key            int64
	present, dirty uint64
	pages          []*page
}

// rank returns the slot of bit b in a chunk whose resident mask is present.
func rank(present uint64, b uint) int {
	return bits.OnesCount64(present & (1<<b - 1))
}

// file is the page-cache state of one inode.
type file struct {
	ino    int64
	chunks map[int64]*chunk
	last   *chunk    // the chunk used last, so runs of pages skip the map
	dirty  chunkHeap // chunks with dirty pages, by key
	queued bool      // in Cache.order

	resident, ndirty int64 // page counts
}

// chunk returns the chunk with the given key, or nil.
func (f *file) chunk(key int64) *chunk {
	if ch := f.last; ch != nil && ch.key == key {
		return ch
	}
	ch := f.chunks[key]
	if ch != nil {
		f.last = ch
	}
	return ch
}

// page returns f's resident page idx, or nil.
func (f *file) page(idx int64) *page {
	ch, b := f.chunk(idx>>chunkShift), uint(idx&(chunkPages-1))
	if ch == nil || ch.present&(1<<b) == 0 {
		return nil
	}
	return ch.pages[rank(ch.present, b)]
}

// chunkHeap is a min-heap of chunks by key (container/heap). A chunk is in
// its file's heap exactly while its dirty mask is non-zero, so writeback
// takes a file's lowest dirty pages without sorting.
type chunkHeap []*chunk

func (h chunkHeap) Len() int           { return len(h) }
func (h chunkHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h chunkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *chunkHeap) Push(x any)        { *h = append(*h, x.(*chunk)) }
func (h *chunkHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return x
}

// WritebackFn flushes up to max dirty pages of file ino to disk and invokes
// done(n) — n pages submitted — once every write has completed. It runs on
// the event loop and must not block; done may run before it returns. The
// file system provides it (allocation, journaling, and block submission
// happen there).
type WritebackFn func(ino int64, max int, done func(n int))

// Cache is the simulated page cache.
type Cache struct {
	env   *sim.Env
	cfg   Config
	hooks MemHooks
	tr    *trace.Tracer

	files    map[int64]*file
	lru      page  // sentinel of the ring of clean pages; lru.next is least recent
	resident int64 // pages across all files
	free     *page // page free list, carved from chunkPages-page slabs

	dirtyCount int64
	// order is the round-robin writeback order: every file dirtied since
	// writeback last found the cache clean, in first-dirtied order.
	order []*file

	throttleQ *sim.WaitQueue // writers blocked on dirty_ratio
	wbWake    *sim.WaitQueue // pdflush wake-ups
	flushHint []int64        // files schedulers asked to flush first

	writeback      WritebackFn
	pdflushEnabled bool
	wbCtx          *ioctx.Ctx

	// Run-to-completion pdflush state: the loop and park continuations are
	// allocated once at construction.
	pdWakeFn func(sig bool)
	pdIdleFn func(sig bool)

	// Tag-memory accounting (Fig 10).
	tagBytes    int64
	maxTagBytes int64

	statHits   int64
	statMisses int64
}

// New creates a cache and starts its writeback daemon. wbCtx is the identity
// of the writeback task (a kernel thread at priority 4, like Linux's
// pdflush).
func New(env *sim.Env, cfg Config, wbCtx *ioctx.Ctx) *Cache {
	c := &Cache{
		env:            env,
		cfg:            cfg,
		tr:             trace.Nop,
		files:          make(map[int64]*file),
		throttleQ:      sim.NewWaitQueue(env),
		wbWake:         sim.NewWaitQueue(env),
		pdflushEnabled: true,
		wbCtx:          wbCtx,
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.pdWakeFn = func(sig bool) { c.pdflushLoop() }
	c.pdIdleFn = c.pdflushAfterIdle
	// The daemon's first pass is a t=0 startup event scheduled in
	// construction order, which fixes the kernel's seq numbering; the
	// schedule goldens pin it. It parks on wbWake.
	env.Schedule(0, c.pdflushLoop)
	return c
}

// SetHooks installs memory-level hooks.
func (c *Cache) SetHooks(h MemHooks) { c.hooks = h }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
func (c *Cache) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	c.tr = tr
}

// SetWriteback installs the file system's flush callback (a WritebackFn).
// The parameter is spelled as an unnamed func type so that fs.PageCache can
// name this method without importing cache.
func (c *Cache) SetWriteback(fn func(ino int64, max int, done func(n int))) {
	c.writeback = fn
}

// SetPdflushEnabled turns the periodic writeback daemon on or off. Split
// schedulers that take complete control of writeback (paper §7.1.2) turn it
// off and call Writeback themselves.
func (c *Cache) SetPdflushEnabled(on bool) {
	c.pdflushEnabled = on
	if on {
		c.wbWake.Signal()
	}
}

// PdflushEnabled reports whether the daemon is active.
func (c *Cache) PdflushEnabled() bool { return c.pdflushEnabled }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetDirtyRatios adjusts throttling thresholds at runtime.
func (c *Cache) SetDirtyRatios(dirty, background float64) {
	c.cfg.DirtyRatio = dirty
	c.cfg.DirtyBackgroundRatio = background
}

// DirtyPagesCount returns the number of dirty pages.
func (c *Cache) DirtyPagesCount() int64 { return c.dirtyCount }

// DirtyBytes returns total dirty bytes.
func (c *Cache) DirtyBytes() int64 { return c.dirtyCount * PageSize }

// FileDirtyPages returns the number of dirty pages of ino.
func (c *Cache) FileDirtyPages(ino int64) int64 {
	if f := c.files[ino]; f != nil {
		return f.ndirty
	}
	return 0
}

// FileDirtyBytes returns the dirty bytes of ino.
func (c *Cache) FileDirtyBytes(ino int64) int64 {
	return c.FileDirtyPages(ino) * PageSize
}

// DirtyFiles returns the inos that currently have dirty pages, in
// round-robin writeback order.
func (c *Cache) DirtyFiles() []int64 {
	out := make([]int64, 0, len(c.order))
	for _, f := range c.order {
		if f.ndirty > 0 {
			out = append(out, f.ino)
		}
	}
	return out
}

// TagBytes returns current tag-memory usage (split framework overhead).
func (c *Cache) TagBytes() int64 { return c.tagBytes }

// MaxTagBytes returns the high-water mark of tag-memory usage.
func (c *Cache) MaxTagBytes() int64 { return c.maxTagBytes }

// Hits and Misses report read-lookup counters.
func (c *Cache) Hits() int64   { return c.statHits }
func (c *Cache) Misses() int64 { return c.statMisses }

func (c *Cache) bgThreshold() int64 {
	return int64(c.cfg.DirtyBackgroundRatio * float64(c.cfg.TotalPages))
}

func (c *Cache) dirtyThreshold() int64 {
	return int64(c.cfg.DirtyRatio * float64(c.cfg.TotalPages))
}

// page returns the resident page (ino, idx), or nil.
func (c *Cache) page(ino, idx int64) *page {
	if f := c.files[ino]; f != nil {
		return f.page(idx)
	}
	return nil
}

// Peek reports whether page (ino, idx) is resident without promoting it or
// touching hit/miss statistics. SCS-Token uses it to test for cache hits at
// the system-call level (the file-system modification Craciunas et al.
// needed).
func (c *Cache) Peek(ino, idx int64) bool { return c.page(ino, idx) != nil }

// Lookup reports whether page (ino, idx) is resident, promoting it in the
// LRU on a hit. It is one of the cache bucket's profiling probes.
func (c *Cache) Lookup(ino, idx int64) bool {
	perf.Count(perf.BucketCache)
	pg := c.page(ino, idx)
	if pg == nil {
		c.statMisses++
		return false
	}
	c.touch(pg)
	c.statHits++
	return true
}

// InsertClean adds a clean page (after a disk read), evicting LRU clean
// pages if RAM is full. Inserting an existing page just promotes it.
func (c *Cache) InsertClean(ino, idx int64) {
	if pg := c.page(ino, idx); pg != nil {
		c.touch(pg)
		return
	}
	c.evictIfFull()
	c.lruPush(c.add(c.fileOf(ino), idx))
}

// fileOf returns ino's record, creating it if needed.
func (c *Cache) fileOf(ino int64) *file {
	f := c.files[ino]
	if f == nil {
		f = &file{ino: ino, chunks: make(map[int64]*chunk)}
		c.files[ino] = f
	}
	return f
}

// add makes page idx of f resident, creating its chunk if needed.
func (c *Cache) add(f *file, idx int64) *page {
	key, b := idx>>chunkShift, uint(idx&(chunkPages-1))
	ch := f.chunk(key)
	if ch == nil {
		ch = &chunk{file: f, key: key}
		f.chunks[key] = ch
		f.last = ch
	}
	pg := c.allocPage()
	pg.ch, pg.idx = ch, idx
	ch.pages = slices.Insert(ch.pages, rank(ch.present, b), pg)
	ch.present |= 1 << b
	f.resident++
	c.resident++
	return pg
}

// drop makes the clean page pg, already off the LRU ring, non-resident,
// freeing its chunk if it empties.
func (c *Cache) drop(pg *page) {
	ch, b := pg.ch, uint(pg.idx&(chunkPages-1))
	i := rank(ch.present, b)
	ch.pages = slices.Delete(ch.pages, i, i+1)
	ch.present &^= 1 << b
	f := ch.file
	f.resident--
	c.resident--
	if ch.present == 0 {
		delete(f.chunks, ch.key)
		if f.last == ch {
			f.last = nil
		}
	}
	c.freePage(pg)
}

// allocPage takes a page from the free list, carving a new slab of
// chunkPages pages when it is empty: one allocation per 64 pages.
func (c *Cache) allocPage() *page {
	if c.free == nil {
		slab := make([]page, chunkPages)
		for i := range slab {
			slab[i].next = c.free
			c.free = &slab[i]
		}
	}
	pg := c.free
	c.free = pg.next
	pg.next = nil
	return pg
}

// freePage returns a page that is off the LRU ring to the free list.
func (c *Cache) freePage(pg *page) {
	*pg = page{next: c.free}
	c.free = pg
}

func (c *Cache) evictIfFull() {
	for c.resident >= c.cfg.TotalPages && c.lru.next != &c.lru {
		pg := c.lru.next
		c.lruUnlink(pg)
		c.drop(pg)
	}
}

// lruPush appends a clean page at the most-recently-used end of the ring.
func (c *Cache) lruPush(pg *page) {
	pg.prev, pg.next = c.lru.prev, &c.lru
	pg.prev.next = pg
	c.lru.prev = pg
}

func (c *Cache) lruUnlink(pg *page) {
	pg.prev.next = pg.next
	pg.next.prev = pg.prev
	pg.prev, pg.next = nil, nil
}

// touch promotes a clean page to most recently used.
func (c *Cache) touch(pg *page) {
	if pg.next != nil {
		c.lruUnlink(pg)
		c.lruPush(pg)
	}
}

// MarkDirty dirties page (ino, idx) on behalf of ctx, firing the
// buffer-dirty hook. It reports whether the page was already dirty (an
// overwrite, which costs no new disk I/O).
func (c *Cache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	return c.MarkDirtyRange(ctx, ino, idx, idx) == 1
}

// MarkDirtyRange dirties pages first..last of ino on behalf of ctx in index
// order, firing the buffer-dirty hook for each page, and returns how many
// were already dirty. The profiling probe, the file lookup and the cause
// set are paid once per call, not per page.
func (c *Cache) MarkDirtyRange(ctx *ioctx.Ctx, ino, first, last int64) int {
	perf.Count(perf.BucketCache)
	if first > last {
		return 0
	}
	f := c.fileOf(ino)
	newCauses := ctx.Causes()
	overwrites := 0
	for idx := first; idx <= last; idx++ {
		pg, b := f.page(idx), uint(idx&(chunkPages-1))
		overwrite := pg != nil && pg.ch.dirty&(1<<b) != 0
		prev, label := causes.None, ""
		if overwrite {
			overwrites++
			prev, label = pg.wcauses, "overwrite"
			c.tagBytes -= int64(prev.TagBytes())
			pg.wcauses = prev.Union(newCauses)
		} else {
			if pg == nil {
				c.evictIfFull()
				pg = c.add(f, idx)
			} else {
				c.lruUnlink(pg)
			}
			pg.wcauses = newCauses
			ch := pg.ch
			if ch.dirty == 0 {
				heap.Push(&f.dirty, ch)
			}
			ch.dirty |= 1 << b
			f.ndirty++
			c.dirtyCount++
			if !f.queued {
				f.queued = true
				c.order = append(c.order, f)
			}
		}
		c.tagBytes += int64(pg.wcauses.TagBytes())
		c.noteTagMax()
		if c.hooks.BufferDirty != nil {
			c.hooks.BufferDirty(ino, idx, pg.wcauses, prev)
		}
		if c.tr.Enabled() {
			now := c.env.Now()
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpDirty, Label: label,
				Req: ctx.Req, PID: ctx.PID, Causes: pg.wcauses,
				Start: now, End: now, Ino: ino, Page: idx,
			})
		}
		if !overwrite && c.dirtyCount > c.bgThreshold() {
			c.wbWake.Signal()
		}
	}
	return overwrites
}

func (c *Cache) noteTagMax() {
	if c.tagBytes > c.maxTagBytes {
		c.maxTagBytes = c.tagBytes
	}
}

// popDirty clears f's lowest dirty page, which stays resident and off the
// LRU ring, and returns it.
func (c *Cache) popDirty(f *file) *page {
	ch := f.dirty[0]
	b := uint(bits.TrailingZeros64(ch.dirty))
	ch.dirty &^= 1 << b
	if ch.dirty == 0 {
		heap.Pop(&f.dirty)
	}
	f.ndirty--
	c.dirtyCount--
	return ch.pages[rank(ch.present, b)]
}

// TakeDirty removes up to max dirty pages of ino (lowest index first),
// marking them clean and returning their indices and cause sets. The caller
// (the file system) is responsible for writing them to disk. Pages
// re-dirtied while in flight simply become dirty again.
func (c *Cache) TakeDirty(ino int64, max int) (idxs []int64, tags []causes.Set) {
	f := c.files[ino]
	if f == nil || f.ndirty == 0 {
		return nil, nil
	}
	if max <= 0 || int64(max) > f.ndirty {
		max = int(f.ndirty)
	}
	idxs = make([]int64, 0, max)
	tags = make([]causes.Set, 0, max)
	for len(idxs) < max {
		pg := c.popDirty(f)
		idxs = append(idxs, pg.idx)
		tags = append(tags, pg.wcauses)
		c.tagBytes -= int64(pg.wcauses.TagBytes())
		pg.wcauses = causes.None
		c.lruPush(pg)
	}
	c.maybeUnthrottle()
	return idxs, tags
}

// FreeFile drops every page of ino, firing buffer-free hooks for dirty
// pages (I/O work that vanished before writeback) in index order.
func (c *Cache) FreeFile(ino int64) {
	if f := c.files[ino]; f != nil {
		for f.ndirty > 0 {
			pg := c.popDirty(f)
			if c.hooks.BufferFree != nil {
				c.hooks.BufferFree(ino, pg.idx, pg.wcauses)
			}
			if c.tr.Enabled() {
				now := c.env.Now()
				c.tr.Record(trace.Event{
					Layer: trace.LayerCache, Op: trace.OpBufferFree,
					PID: 0, Causes: pg.wcauses,
					Start: now, End: now, Ino: ino, Page: pg.idx,
				})
			}
			c.tagBytes -= int64(pg.wcauses.TagBytes())
		}
		//splitlint:ignore maporder unlinking and freeing in any order leaves the same ring and free page count
		for _, ch := range f.chunks {
			for _, pg := range ch.pages {
				if pg.next != nil {
					c.lruUnlink(pg)
				}
				c.freePage(pg)
			}
		}
		c.resident -= f.resident
		f.resident = 0
		clear(f.chunks)
		f.last = nil
		if !f.queued {
			delete(c.files, ino)
		}
	}
	c.maybeUnthrottle()
}

// CheckConsistency verifies the cache's internal invariants: every chunk is
// non-empty, its dirty mask lies within its present mask, and its page
// slots match the present mask in index order; each file's dirty heap is a
// heap holding exactly its chunks with dirty pages; the per-file, dirty and
// resident counters and tag accounting match the pages; a page is clean
// exactly when it is on the LRU ring; and every file with dirty pages is in
// the round-robin order. Stress tests call it after random workloads. Files
// and chunks are checked in sorted order, so the first violation reported
// is the same on every run.
func (c *Cache) CheckConsistency() error {
	var dirty, clean, resident, tagSum int64
	for _, ino := range sortedKeys(c.files) {
		f := c.files[ino]
		if f.ino != ino {
			return fmt.Errorf("cache: file %d filed under ino %d", f.ino, ino)
		}
		if f.last != nil && f.chunks[f.last.key] != f.last {
			return fmt.Errorf("cache: file %d caches chunk %d, which is not in its page table", ino, f.last.key)
		}
		var fileResident, fileDirty int64
		var dirtyChunks []int64
		for _, key := range sortedKeys(f.chunks) {
			ch := f.chunks[key]
			if ch.file != f || ch.key != key {
				return fmt.Errorf("cache: chunk (%d,%d) filed under (%d,%d)", ch.file.ino, ch.key, ino, key)
			}
			if ch.present == 0 {
				return fmt.Errorf("cache: chunk (%d,%d) has no resident page", ino, key)
			}
			if ch.dirty&^ch.present != 0 {
				return fmt.Errorf("cache: chunk (%d,%d) dirty mask %#x outside present mask %#x", ino, key, ch.dirty, ch.present)
			}
			if n := bits.OnesCount64(ch.present); len(ch.pages) != n {
				return fmt.Errorf("cache: chunk (%d,%d) holds %d page slots for %d resident pages", ino, key, len(ch.pages), n)
			}
			for i, m := 0, ch.present; m != 0; i, m = i+1, m&(m-1) {
				b := uint(bits.TrailingZeros64(m))
				pg, idx := ch.pages[i], key<<chunkShift+int64(b)
				if pg.ch != ch || pg.idx != idx {
					return fmt.Errorf("cache: slot of page (%d,%d) holds page %d of another chunk", ino, idx, pg.idx)
				}
				isDirty := ch.dirty&(1<<b) != 0
				if isDirty == (pg.next != nil) {
					return fmt.Errorf("cache: page (%d,%d) dirty=%v but on LRU=%v", ino, idx, isDirty, pg.next != nil)
				}
				if isDirty {
					tagSum += int64(pg.wcauses.TagBytes())
				} else {
					clean++
				}
			}
			if ch.dirty != 0 {
				dirtyChunks = append(dirtyChunks, key)
			}
			fileResident += int64(bits.OnesCount64(ch.present))
			fileDirty += int64(bits.OnesCount64(ch.dirty))
		}
		inHeap := make([]int64, len(f.dirty))
		for i, ch := range f.dirty {
			if i > 0 && ch.key < f.dirty[(i-1)/2].key {
				return fmt.Errorf("cache: file %d dirty heap out of order at %d", ino, i)
			}
			if f.chunks[ch.key] != ch {
				return fmt.Errorf("cache: file %d dirty heap holds chunk %d, which is not in its page table", ino, ch.key)
			}
			inHeap[i] = ch.key
		}
		slices.Sort(inHeap)
		if !slices.Equal(inHeap, dirtyChunks) {
			return fmt.Errorf("cache: file %d dirty heap holds chunks %v, chunks with dirty pages are %v", ino, inHeap, dirtyChunks)
		}
		if fileResident != f.resident || fileDirty != f.ndirty {
			return fmt.Errorf("cache: file %d counts %d resident and %d dirty pages, its chunks hold %d and %d",
				ino, f.resident, f.ndirty, fileResident, fileDirty)
		}
		if fileDirty > 0 && !f.queued {
			return fmt.Errorf("cache: file %d has dirty pages but is not in the writeback order", ino)
		}
		dirty += fileDirty
		resident += fileResident
	}
	if dirty != c.dirtyCount {
		return fmt.Errorf("cache: dirtyCount %d != actual %d", c.dirtyCount, dirty)
	}
	if tagSum != c.tagBytes {
		return fmt.Errorf("cache: tagBytes %d != actual %d", c.tagBytes, tagSum)
	}
	if resident != c.resident {
		return fmt.Errorf("cache: resident %d != actual %d", c.resident, resident)
	}
	var onLRU int64
	for pg := c.lru.next; pg != &c.lru; pg = pg.next {
		onLRU++
	}
	if onLRU != clean {
		return fmt.Errorf("cache: LRU holds %d pages, %d are clean", onLRU, clean)
	}
	return nil
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Throttle blocks p while the dirty-page count exceeds the dirty ratio
// (Linux's balance_dirty_pages). The writeback daemon unthrottles writers as
// pages clean.
func (c *Cache) Throttle(p *sim.Proc) {
	for c.dirtyCount > c.dirtyThreshold() {
		c.wbWake.Signal()
		c.throttleQ.Wait(p)
	}
}

// ThrottledWriters returns the number of processes blocked in Throttle.
func (c *Cache) ThrottledWriters() int { return c.throttleQ.Len() }

func (c *Cache) maybeUnthrottle() {
	if c.dirtyCount <= c.dirtyThreshold() {
		c.throttleQ.Broadcast()
	}
}

// FlushAsync asks the writeback daemon to flush ino ahead of its
// largest-first order (used by Split-Deadline's cost-spreading pre-flush).
// The hint is queued only while pdflush is enabled: only the daemon drains
// the queue, so a scheduler that owns writeback would otherwise grow it for
// the whole run.
func (c *Cache) FlushAsync(ino int64) {
	if c.pdflushEnabled {
		c.flushHint = append(c.flushHint, ino)
	}
	c.wbWake.Signal()
}

// Writeback synchronously flushes up to max dirty pages of ino using the
// installed writeback function, blocking p until the writes complete. It
// returns pages flushed.
func (c *Cache) Writeback(p *sim.Proc, ino int64, max int) int {
	if c.writeback == nil {
		return 0
	}
	var n int
	p.Await(func(resume func()) {
		c.flush(ino, max, "sync", func(got int) {
			n = got
			resume()
		})
	})
	return n
}

// flush runs the writeback callback on ino and then done(n). When tracing,
// each flush is its own request tree: it stamps the writeback identity so
// the flush, block and device spans below all link up, and records the
// writeback span under label.
func (c *Cache) flush(ino int64, max int, label string, done func(n int)) {
	traced := c.tr.Enabled()
	var start sim.Time
	if traced {
		c.wbCtx.Req = c.tr.NextReq()
		start = c.env.Now()
	}
	depth := c.dirtyCount
	c.writeback(ino, max, func(n int) {
		if traced {
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpWriteback, Label: label,
				Req: c.wbCtx.Req, PID: c.wbCtx.PID, Depth: depth,
				Start: start, End: c.env.Now(), Ino: ino, Blocks: n,
			})
		}
		done(n)
	})
}

// nextDirtyIno returns the next file to write back: scheduler hints first,
// then the file with the most dirty pages, the first dirtied on a tie.
// Largest-first approximates Linux's proportional writeback (flusher effort
// follows dirty share), so a process admitted more writes also receives
// more drain.
func (c *Cache) nextDirtyIno() (int64, bool) {
	for len(c.flushHint) > 0 {
		ino := c.flushHint[0]
		c.flushHint = c.flushHint[1:]
		if c.FileDirtyPages(ino) > 0 {
			return ino, true
		}
	}
	var best *file
	for _, f := range c.order {
		if f.ndirty > 0 && (best == nil || f.ndirty > best.ndirty) {
			best = f
		}
	}
	if best == nil {
		// Every file is clean: restart the round-robin order, and forget
		// the files FreeFile left queued.
		for _, f := range c.order {
			f.queued = false
			if f.resident == 0 {
				delete(c.files, f.ino)
			}
		}
		c.order = c.order[:0]
		return 0, false
	}
	return best.ino, true
}

// pdflushLoop is the writeback daemon as a run-to-completion state machine:
// wake periodically (or on demand), and while the system is over the
// background threshold — or a flush hint is pending, or writers are
// throttled — flush one dirty file per pass, parking on wbWake (with or
// without the periodic timeout) between passes.
func (c *Cache) pdflushLoop() {
	if !c.pdflushEnabled {
		c.wbWake.WaitFn(c.pdWakeFn)
		return
	}
	over := c.dirtyCount > c.bgThreshold()
	hinted := len(c.flushHint) > 0
	throttled := c.throttleQ.Len() > 0
	if !over && !hinted && !throttled {
		c.wbWake.WaitTimeoutFn(c.cfg.WritebackInterval, c.pdIdleFn)
		return
	}
	ino, ok := c.nextDirtyIno()
	if !ok {
		c.maybeUnthrottle()
		c.wbWake.WaitTimeoutFn(c.cfg.WritebackInterval, c.pdWakeFn)
		return
	}
	c.flushOneFn(ino)
}

// pdflushAfterIdle resumes the daemon after an idle park: flush one file
// periodically to age out dirty data even under the background threshold.
func (c *Cache) pdflushAfterIdle(sig bool) {
	if c.dirtyCount > 0 && c.pdflushEnabled {
		if ino, ok := c.nextDirtyIno(); ok {
			c.flushOneFn(ino)
			return
		}
	}
	c.pdflushLoop()
}

// flushOneFn flushes one file through the writeback callback and continues
// the daemon loop once the flush completes.
func (c *Cache) flushOneFn(ino int64) {
	if c.writeback == nil {
		// No file system attached: drop the pages (test configurations).
		c.TakeDirty(ino, c.cfg.WritebackBatch)
		c.pdflushLoop()
		return
	}
	c.flush(ino, c.cfg.WritebackBatch, "pdflush", func(n int) {
		c.maybeUnthrottle()
		c.pdflushLoop()
	})
}
