// Package cache simulates the page cache: per-file pages, dirty tracking
// with cross-layer cause tags, an LRU for clean pages, dirty-ratio write
// throttling, and the writeback daemon (pdflush). It exposes the memory-
// level hooks of the split framework (buffer-dirty and buffer-free,
// paper §4.2) and accounts tag memory for the space-overhead experiment
// (Fig 10).
package cache

import (
	"fmt"
	"math"
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

// MemHooks are the split framework's memory-level notifications (paper
// §4.2). A hook fires once per chunk run: the pages one call covers within
// one aligned chunk of ChunkPages pages, named by the chunk's first page
// index base and a mask whose bit b stands for page base+b. A call's runs
// fire in index order, and a hook takes its pages in index order. Hooks
// must not record trace events or schedule events: the cache records its
// per-page events itself, so traces and schedules are the same as if the
// hooks fired page by page. Any field may be nil.
type MemHooks struct {
	// BufferDirty fires after MarkDirtyRange dirties a chunk run on behalf
	// of the writer's cause set cs. pages marks the run, and overwrite the
	// pages of it that were already dirty (the paper: the scheduler may
	// shift responsibility to the last writer). No scheduler reads an
	// overwritten page's previous causes, so the hook does not carry them.
	BufferDirty func(ino, base int64, pages, overwrite uint64, cs causes.Set)
	// BufferFree fires after FreeFile discards a chunk's dirty pages before
	// writeback; freed marks them.
	BufferFree func(ino, base int64, freed uint64)
}

// ChunkShift sets the page-table chunk size: a file's pages are grouped in
// aligned runs of 1<<ChunkShift pages, so one chunk's state fits a uint64.
const (
	ChunkShift = 6
	ChunkPages = 1 << ChunkShift
)

// arena is a list of blocks of 1<<blockShift records of T, named by the
// int32 handles grow issues in order. It grows a block at a time and never
// moves a record, so a pointer to one stays valid. Grown as one slice, an
// arena would be copied into fresh, zeroed memory a dozen times on its way
// to a full cache's size.
type arena[T any] struct {
	blocks []*[1 << blockShift]T
	n      int32 // handles issued
}

const blockShift = 10

// at returns the record of handle h.
func (a *arena[T]) at(h int32) *T {
	return &a.blocks[h>>blockShift][h&(1<<blockShift-1)]
}

// grow issues the next handle, whose record is zero, panicking if the
// arena would outgrow int32 handles.
func (a *arena[T]) grow() int32 {
	h := a.n
	if h == math.MaxInt32 {
		panic("cache: arena outgrew int32 handles")
	}
	if int(h)>>blockShift == len(a.blocks) {
		a.blocks = append(a.blocks, new([1 << blockShift]T))
	}
	a.n++
	return h
}

// chunk is the state of one aligned run of ChunkPages pages of a file, one
// record of the cache's chunk arena, named by its int32 handle. Bit b of
// present (dirty) is page key<<ChunkShift + b. nodes lists the LRU ring
// nodes holding its clean pages: their masks are disjoint and together are
// present &^ dirty. runs holds the write
// cause sets of the dirty pages, one run per distinct set: the run masks are
// disjoint, together they are the dirty mask, and no two runs have equal
// sets. A chunk that empties is recycled with the capacity of its node list
// and runs, so a cache at steady state allocates no chunk storage.
type chunk struct {
	file           *file
	key            int64
	present, dirty uint64
	nodes          []int32
	runs           []causeRun
}

// causeRun is one write cause set of a chunk and the dirty pages it tags.
type causeRun struct {
	mask uint64
	set  causes.Set
}

// runOf returns the index of the chunk's run whose set equals cs, or -1.
func (ch *chunk) runOf(cs causes.Set) int {
	for i, r := range ch.runs {
		if r.set.Equal(cs) {
			return i
		}
	}
	return -1
}

// tag adds the pages of mask, none of them in a run, to the run for cs.
func (ch *chunk) tag(mask uint64, cs causes.Set) {
	if i := ch.runOf(cs); i >= 0 {
		ch.runs[i].mask |= mask
		return
	}
	ch.runs = append(ch.runs, causeRun{mask, cs})
}

// retag unites the cause sets of the dirty pages over with cs and returns
// the change in tag bytes. A run whose set already covers cs is left as it
// is; otherwise the pages of it in over move to the run for the union.
func (ch *chunk) retag(over uint64, cs causes.Set) int64 {
	var delta int64
	for i := 0; i < len(ch.runs); i++ {
		r := &ch.runs[i]
		o := r.mask & over
		if o == 0 {
			continue
		}
		u := r.set.Union(cs)
		if u.Len() == r.set.Len() {
			continue // cs ⊆ r.set, so u is r.set
		}
		delta += int64(bits.OnesCount64(o)) * int64(u.TagBytes()-r.set.TagBytes())
		if o == r.mask && ch.runOf(u) < 0 {
			r.set = u
			continue
		}
		r.mask &^= o
		ch.tag(o, u)
	}
	ch.dropEmptyRuns()
	return delta
}

// dropEmptyRuns deletes the cause runs that tag no page.
func (ch *chunk) dropEmptyRuns() {
	ch.runs = slices.DeleteFunc(ch.runs, func(r causeRun) bool { return r.mask == 0 })
}

// stretch returns the lowest page b of the dirty pages m, the number n of
// pages of m from b on that are consecutive and in b's cause run, and that
// run's set.
func (ch *chunk) stretch(m uint64) (b uint, n int64, cs causes.Set) {
	b = uint(bits.TrailingZeros64(m))
	for _, r := range ch.runs {
		if r.mask&(1<<b) != 0 {
			return b, int64(bits.TrailingZeros64(^(r.mask & m >> b))), r.set
		}
	}
	return b, 1, causes.None
}

// file is the page-cache state of one inode.
type file struct {
	ino    int64
	chunks map[int64]int32 // chunk handles by key
	last   int32           // the chunk used last (0 for none), so runs of pages skip the map
	dirty  dirtyHeap       // chunks with dirty pages, by key
	queued bool            // in Cache.order

	resident, ndirty int64 // page counts
}

// chunkOf returns the handle of f's chunk with the given key, or 0.
func (c *Cache) chunkOf(f *file, key int64) int32 {
	if h := f.last; h != 0 && c.chunks.at(h).key == key {
		return h
	}
	h := f.chunks[key]
	if h != 0 {
		f.last = h
	}
	return h
}

// dirtyHeap is a min-heap of a file's chunks by key. A chunk is in its
// file's heap exactly while its dirty mask is non-zero, so writeback takes a
// file's lowest dirty pages without sorting. It sifts as container/heap
// does, typed so that a push boxes nothing.
type dirtyHeap []dirtyChunk

// dirtyChunk is a dirtyHeap entry: a chunk's key and handle.
type dirtyChunk struct {
	key int64
	ch  int32
}

func (h *dirtyHeap) push(key int64, ch int32) {
	*h = append(*h, dirtyChunk{key, ch})
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].key >= s[i].key {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes the chunk with the lowest key.
func (h *dirtyHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].key < s[j].key {
			j = j2
		}
		if s[j].key >= s[i].key {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
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

	files map[int64]*file
	// ring is the LRU ring of clean pages, a Ring without its methods (lru
	// adds them), embedded only so that TestCheckConsistencyCatchesBadArena
	// can corrupt c.nodes and c.free without Cache gaining Ring's methods.
	// chunks is the chunk arena, whose handle 0 stands for "no chunk" and
	// stays empty; freeChunks holds the handles of recycled chunk records.
	// Nothing visits the chunk arena in handle order, so handle numbering
	// never shows.
	ring
	chunks     arena[chunk]
	freeChunks []int32
	resident   int64 // pages across all files

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
	c.lru().Init()
	c.chunks.grow() // "no chunk"
	c.pdWakeFn = func(sig bool) { c.pdflushLoop() }
	c.pdIdleFn = c.pdflushAfterIdle
	// The daemon's first pass is a t=0 startup event scheduled in
	// construction order, which fixes the kernel's seq numbering; the
	// schedule goldens pin it. It parks on wbWake.
	env.Schedule(0, c.pdflushLoop)
	return c
}

type ring Ring

func (c *Cache) lru() *Ring { return (*Ring)(&c.ring) }

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

// Peek reports whether page (ino, idx) is resident without promoting it or
// touching hit/miss statistics. SCS-Token uses it to test for cache hits at
// the system-call level (the file-system modification Craciunas et al.
// needed).
func (c *Cache) Peek(ino, idx int64) bool {
	f := c.files[ino]
	return f != nil && c.chunks.at(c.chunkOf(f, idx>>ChunkShift)).present&(1<<(idx&(ChunkPages-1))) != 0
}

// Lookup reports whether page (ino, idx) is resident, promoting it in the
// LRU on a hit: the one-page case of LookupRun.
func (c *Cache) Lookup(ino, idx int64) bool {
	_, hit := c.LookupRun(ino, idx, idx)
	return hit
}

// LookupRun returns the length n of the longest run of pages of ino that
// starts at first, ends no later than last, and is all resident (hit) or
// all absent. A hit run's pages are promoted in the LRU in index order, and
// hits and misses are counted per page, exactly as Lookup page by page
// would. It is one of the cache bucket's profiling probes, counted once per
// call; the file lookup is paid once per call and the chunk lookup once per
// chunk. It requires first <= last.
func (c *Cache) LookupRun(ino, first, last int64) (n int64, hit bool) {
	perf.Count(perf.BucketCache)
	f := c.files[ino]
	if f == nil {
		n = last - first + 1
		c.statMisses += n
		return n, false
	}
	for idx := first; idx <= last; {
		h, b := c.chunkOf(f, idx>>ChunkShift), uint(idx&(ChunkPages-1))
		present := c.chunks.at(h).present
		if idx == first {
			hit = present&(1<<b) != 0
		}
		same := present >> b
		if !hit {
			same = ^same
		}
		k := min(int64(bits.TrailingZeros64(^same)), ChunkPages-int64(b), last-idx+1)
		if k == 0 {
			break // the run ended at the previous chunk's last page
		}
		if hit {
			c.promote(h, (uint64(1)<<k-1)<<b)
		}
		idx += k
		n += k
		if int64(b)+k < ChunkPages {
			break // the run ends inside this chunk
		}
	}
	if hit {
		c.statHits += n
	} else {
		c.statMisses += n
	}
	return n, hit
}

// InsertClean adds a clean page (after a disk read), evicting LRU clean
// pages if RAM is full. Inserting an existing page just promotes it. It is
// the one-page case of InsertCleanRange.
func (c *Cache) InsertClean(ino, idx int64) { c.InsertCleanRange(ino, idx, idx) }

// InsertCleanRange inserts pages first..last of ino in index order as
// InsertClean page by page would, looking the file up once.
func (c *Cache) InsertCleanRange(ino, first, last int64) {
	f := c.fileOf(ino)
	for idx := first; idx <= last; idx++ {
		key, bit := idx>>ChunkShift, uint64(1)<<(idx&(ChunkPages-1))
		if h := c.chunkOf(f, key); c.chunks.at(h).present&bit != 0 {
			c.promote(h, bit)
			continue
		}
		c.evictIfFull()
		h := c.add(f, key, bit)
		c.lru().Push(h, &c.chunks.at(h).nodes, bit)
	}
}

// fileOf returns ino's record, creating it if needed.
func (c *Cache) fileOf(ino int64) *file {
	f := c.files[ino]
	if f == nil {
		f = &file{ino: ino, chunks: make(map[int64]int32)}
		c.files[ino] = f
	}
	return f
}

// add makes the absent page bit of f's chunk key resident, off the LRU
// ring, creating the chunk if needed (from a recycled record if there is
// one), and returns the chunk's handle.
func (c *Cache) add(f *file, key int64, bit uint64) int32 {
	h := c.chunkOf(f, key)
	if h == 0 {
		if n := len(c.freeChunks); n > 0 {
			h, c.freeChunks = c.freeChunks[n-1], c.freeChunks[:n-1]
		} else {
			h = c.chunks.grow()
		}
		ch := c.chunks.at(h)
		ch.file, ch.key = f, key
		f.chunks[key], f.last = h, h
	}
	c.chunks.at(h).present |= bit
	f.resident++
	c.resident++
	return h
}

// freeChunk recycles the empty chunk h, keeping the capacity of its node
// list and of its cause runs, which are empty and zeroed.
func (c *Cache) freeChunk(h int32) {
	ch := c.chunks.at(h)
	*ch = chunk{nodes: ch.nodes[:0], runs: ch.runs[:0]}
	c.freeChunks = append(c.freeChunks, h)
}

// evictIfFull drops least recently used clean pages, the head node's lowest
// first, while RAM is full, recycling each chunk that empties.
func (c *Cache) evictIfFull() {
	for c.resident >= c.cfg.TotalPages {
		n := c.lru().Next(0)
		if n == 0 {
			return
		}
		h, m := c.lru().Node(n)
		ch, bit := c.chunks.at(h), m&-m
		c.lru().Take(n, &ch.nodes, bit)
		ch.present &^= bit
		ch.file.resident--
		c.resident--
		if f := ch.file; ch.present == 0 {
			delete(f.chunks, ch.key)
			if f.last == h {
				f.last = 0
			}
			c.freeChunk(h)
		}
	}
}

// promote moves the clean pages of m in chunk h to the most recently used
// end of the LRU ring in index order, leaving the ring that promoting them
// one at a time would.
func (c *Cache) promote(h int32, m uint64) {
	ch := c.chunks.at(h)
	if m &= ch.present &^ ch.dirty; m != 0 {
		c.lru().Promote(h, &ch.nodes, m)
	}
}

// MarkDirty dirties page (ino, idx) on behalf of ctx, firing the
// buffer-dirty hook. It reports whether the page was already dirty (an
// overwrite, which costs no new disk I/O).
func (c *Cache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	return c.MarkDirtyRange(ctx, ino, idx, idx) == 1
}

// MarkDirtyRange dirties pages first..last of ino on behalf of ctx in index
// order and returns how many were already dirty. It works a chunk at a time:
// a chunk's overwritten pages cost one cause-set union per cause run, not
// one per page, and leave the runs as they are when the writer's causes are
// already in them. Its newly dirty pages are made resident one by one
// (evicting clean pages if RAM is full) or taken off the LRU ring a stretch
// at a time, in index order, then tagged together. The buffer-dirty hook
// fires once per chunk run and, when tracing, each page records its dirty
// event in index order with its causes after the write. The tag-memory
// high-water mark is noted and the writeback daemon woken once per call;
// both are exact, because tag bytes and the dirty count only rise within a
// call. The profiling probe, the file lookup and the writer's cause set are
// paid once per call.
func (c *Cache) MarkDirtyRange(ctx *ioctx.Ctx, ino, first, last int64) int {
	perf.Count(perf.BucketCache)
	if first > last {
		return 0
	}
	f := c.fileOf(ino)
	cs := ctx.Causes()
	overwrites, dirtied := 0, false
	for lo := first; lo <= last; {
		key, b0 := lo>>ChunkShift, uint(lo&(ChunkPages-1))
		n := min(last-lo+1, ChunkPages-int64(b0))
		run := (uint64(1)<<n - 1) << b0
		h := c.chunkOf(f, key)
		ch := c.chunks.at(h)
		over := ch.present & ch.dirty & run
		if over != 0 {
			overwrites += bits.OnesCount64(over)
			c.tagBytes += ch.retag(over, cs)
		}
		if fresh := run &^ over; fresh != 0 {
			// The resident pages of fresh are clean. Those below its lowest
			// absent page leave the ring before that page is made resident,
			// whose eviction may take one of fresh's later pages.
			for m := fresh; m != 0; {
				absent := m &^ c.chunks.at(h).present
				low := absent & -absent
				if below := m & (low - 1); below != 0 {
					c.lru().Unlink(&c.chunks.at(h).nodes, below)
					m &^= below
					continue
				}
				// Eviction may empty and recycle chunk h: add looks the
				// chunk up again.
				c.evictIfFull()
				h = c.add(f, key, low)
				m &^= low
			}
			ch = c.chunks.at(h)
			if ch.dirty == 0 {
				f.dirty.push(key, h)
			}
			ch.dirty |= fresh
			ch.tag(fresh, cs)
			k := int64(bits.OnesCount64(fresh))
			f.ndirty += k
			c.dirtyCount += k
			c.tagBytes += k * int64(cs.TagBytes())
			dirtied = true
			if !f.queued {
				f.queued = true
				c.order = append(c.order, f)
			}
		}
		if c.tr.Enabled() {
			c.traceDirty(ctx, ch, run, over)
		}
		if c.hooks.BufferDirty != nil {
			c.hooks.BufferDirty(ino, key<<ChunkShift, run, over, cs)
		}
		lo += n
	}
	c.maxTagBytes = max(c.maxTagBytes, c.tagBytes)
	if dirtied && c.dirtyCount > c.bgThreshold() {
		c.wbWake.Signal()
	}
	return overwrites
}

// traceDirty records the dirty event of each page of run in ch, in index
// order, with the page's causes; the pages of over are overwrites.
func (c *Cache) traceDirty(ctx *ioctx.Ctx, ch *chunk, run, over uint64) {
	now := c.env.Now()
	for m := run; m != 0; m &= m - 1 {
		b, _, cs := ch.stretch(m)
		label := ""
		if over&(1<<b) != 0 {
			label = "overwrite"
		}
		c.tr.Record(trace.Event{
			Layer: trace.LayerCache, Op: trace.OpDirty, Label: label,
			Req: ctx.Req, PID: ctx.PID, Causes: cs,
			Start: now, End: now, Ino: ch.file.ino, Page: ch.key<<ChunkShift + int64(b),
		})
	}
}

// clean clears the dirty pages mask of ch, its file's lowest dirty chunk,
// and releases their cause tags, dropping emptied cause runs. The pages stay
// resident and off the LRU ring.
func (c *Cache) clean(ch *chunk, mask uint64) {
	f := ch.file
	if ch.dirty &^= mask; ch.dirty == 0 {
		f.dirty.pop()
	}
	k := int64(bits.OnesCount64(mask))
	f.ndirty -= k
	c.dirtyCount -= k
	for i := range ch.runs {
		r := &ch.runs[i]
		c.tagBytes -= int64(bits.OnesCount64(r.mask&mask)) * int64(r.set.TagBytes())
		r.mask &^= mask
	}
	ch.dropEmptyRuns()
}

// TakeDirty cleans up to max dirty pages of ino (all if max <= 0), lowest
// first, calling run(first, n, cs) in ascending order for each run of pages
// first..first+n-1 with one cause set cs; run must not call into the cache. A
// run is non-empty and within one chunk: runs that meet inside a chunk differ
// in set, and equal-set runs that meet at a chunk boundary are not merged.
// The pages go back on the LRU ring in index order; the caller (the file
// system) writes them to disk, and a page re-dirtied meanwhile is dirty again.
func (c *Cache) TakeDirty(ino int64, max int, run func(first, n int64, cs causes.Set)) {
	f := c.files[ino]
	if f == nil || f.ndirty == 0 {
		return
	}
	left := f.ndirty
	if max > 0 && int64(max) < left {
		left = int64(max)
	}
	for left > 0 {
		h := f.dirty[0].ch
		ch := c.chunks.at(h)
		var take uint64
		for m := ch.dirty; m != 0 && left > 0; {
			b, k, cs := ch.stretch(m)
			k = min(k, left)
			run(ch.key<<ChunkShift+int64(b), k, cs)
			take |= (1<<k - 1) << b
			m &^= take
			left -= k
		}
		c.clean(ch, take)
		c.lru().Push(h, &ch.nodes, take)
	}
	c.maybeUnthrottle()
}

// FreeFile drops every page of ino, firing the buffer-free hook for the
// dirty pages (I/O work that vanished before writeback) once per chunk, in
// index order.
func (c *Cache) FreeFile(ino int64) {
	if f := c.files[ino]; f != nil {
		for f.ndirty > 0 {
			ch := c.chunks.at(f.dirty[0].ch)
			freed, base := ch.dirty, ch.key<<ChunkShift
			if c.tr.Enabled() {
				now := c.env.Now()
				for m := freed; m != 0; m &= m - 1 {
					b, _, cs := ch.stretch(m)
					c.tr.Record(trace.Event{
						Layer: trace.LayerCache, Op: trace.OpBufferFree,
						PID: 0, Causes: cs,
						Start: now, End: now, Ino: ino, Page: base + int64(b),
					})
				}
			}
			c.clean(ch, freed)
			if c.hooks.BufferFree != nil {
				c.hooks.BufferFree(ino, base, freed)
			}
		}
		//splitlint:ignore maporder freeing in any order leaves the same ring; the order only numbers free handles, which nothing visits in handle order
		for _, h := range f.chunks {
			for _, n := range c.chunks.at(h).nodes {
				c.lru().freeNode(n)
			}
			c.freeChunk(h)
		}
		c.resident -= f.resident
		f.resident = 0
		clear(f.chunks)
		f.last = 0
		if !f.queued {
			delete(c.files, ino)
		}
	}
	c.maybeUnthrottle()
}

// CheckConsistency verifies the cache's internal invariants: every chunk is
// non-empty, its dirty mask lies within its present mask, its nodes hold
// exactly its clean pages, and its cause runs are non-empty, disjoint, of
// distinct sets and together tag exactly its dirty pages; each file's dirty
// heap holds exactly its chunks with dirty pages; counters and tag bytes
// match the pages; chunks in use and recycled fill the chunk arena; the LRU
// ring passes RingCheck; and every file with dirty pages is in the writeback
// order. Files and chunks are checked in sorted order, so the first
// violation reported is the same on every run.
func (c *Cache) CheckConsistency() error {
	var dirty, resident, tagSum int64
	var chunksInUse int
	ring := c.lru().Check()
	chunkInUse := make([]bool, c.chunks.n)
	for _, ino := range sortedKeys(c.files) {
		f := c.files[ino]
		if f.ino != ino {
			return fmt.Errorf("cache: file %d filed under ino %d", f.ino, ino)
		}
		if f.last != 0 && (f.last >= c.chunks.n || f.chunks[c.chunks.at(f.last).key] != f.last) {
			return fmt.Errorf("cache: file %d caches chunk handle %d, which is not in its page table", ino, f.last)
		}
		var fileResident, fileDirty int64
		var dirtyChunks []int64
		for _, key := range sortedKeys(f.chunks) {
			h := f.chunks[key]
			if h <= 0 || h >= c.chunks.n || chunkInUse[h] {
				return fmt.Errorf("cache: chunk (%d,%d) has handle %d, outside the chunk arena or another chunk's", ino, key, h)
			}
			chunkInUse[h] = true
			chunksInUse++
			ch := c.chunks.at(h)
			if ch.file != f || ch.key != key {
				return fmt.Errorf("cache: chunk (%d,%d) has the record of another chunk", ino, key)
			}
			if ch.present == 0 {
				return fmt.Errorf("cache: chunk (%d,%d) has no resident page", ino, key)
			}
			if ch.dirty&^ch.present != 0 {
				return fmt.Errorf("cache: chunk (%d,%d) dirty mask %#x outside present mask %#x", ino, key, ch.dirty, ch.present)
			}
			held, err := ring.Chunk(h, ch.nodes)
			if err != nil {
				return fmt.Errorf("cache: chunk (%d,%d) %w", ino, key, err)
			}
			if clean := ch.present &^ ch.dirty; held != clean {
				return fmt.Errorf("cache: chunk (%d,%d) nodes hold pages %#x, its clean pages are %#x", ino, key, held, clean)
			}
			var tagged uint64
			for i, r := range ch.runs {
				switch {
				case r.mask == 0:
					return fmt.Errorf("cache: chunk (%d,%d) cause run %d tags no page", ino, key, i)
				case r.mask&tagged != 0:
					return fmt.Errorf("cache: chunk (%d,%d) cause run %d tags pages %#x of an earlier run", ino, key, i, r.mask&tagged)
				case slices.ContainsFunc(ch.runs[:i], func(q causeRun) bool { return q.set.Equal(r.set) }):
					return fmt.Errorf("cache: chunk (%d,%d) cause run %d repeats the set %v of an earlier run", ino, key, i, r.set)
				}
				tagged |= r.mask
				tagSum += int64(bits.OnesCount64(r.mask)) * int64(r.set.TagBytes())
			}
			if tagged != ch.dirty {
				return fmt.Errorf("cache: chunk (%d,%d) cause runs tag pages %#x, dirty mask is %#x", ino, key, tagged, ch.dirty)
			}
			if ch.dirty != 0 {
				dirtyChunks = append(dirtyChunks, key)
			}
			fileResident += int64(bits.OnesCount64(ch.present))
			fileDirty += int64(bits.OnesCount64(ch.dirty))
		}
		inHeap := make([]int64, len(f.dirty))
		for i, e := range f.dirty {
			if i > 0 && e.key < f.dirty[(i-1)/2].key {
				return fmt.Errorf("cache: file %d dirty heap out of order at %d", ino, i)
			}
			if f.chunks[e.key] != e.ch {
				return fmt.Errorf("cache: file %d dirty heap holds chunk %d, which is not in its page table", ino, e.key)
			}
			inHeap[i] = e.key
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
	if err := ring.Done(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	for _, h := range c.freeChunks {
		if h <= 0 || h >= c.chunks.n || chunkInUse[h] {
			return fmt.Errorf("cache: recycled chunk handle %d is outside the chunk arena, in use or recycled twice", h)
		}
		chunkInUse[h] = true
	}
	if chunksInUse+len(c.freeChunks) != int(c.chunks.n-1) {
		return fmt.Errorf("cache: %d chunks in use and %d recycled, the chunk arena holds %d", chunksInUse, len(c.freeChunks), c.chunks.n-1)
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
		c.TakeDirty(ino, c.cfg.WritebackBatch, func(int64, int64, causes.Set) {})
		c.pdflushLoop()
		return
	}
	c.flush(ino, c.cfg.WritebackBatch, "pdflush", func(n int) {
		c.maybeUnthrottle()
		c.pdflushLoop()
	})
}
