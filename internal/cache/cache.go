// Package cache simulates the page cache: per-file pages, dirty tracking
// with cross-layer cause tags, an LRU for clean pages, dirty-ratio write
// throttling, and the writeback daemon (pdflush). It exposes the memory-
// level hooks of the split framework (buffer-dirty and buffer-free,
// paper §4.2) and accounts tag memory for the space-overhead experiment
// (Fig 10).
package cache

import (
	"container/list"
	"fmt"
	"sort"
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

type pageKey struct {
	ino int64
	idx int64
}

type page struct {
	key       pageKey
	dirty     bool
	wcauses   causes.Set
	dirtiedAt sim.Time
	lruElem   *list.Element // non-nil while clean and evictable
}

type dirtyFile struct {
	ino   int64
	pages map[int64]struct{}
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

	pages map[pageKey]*page
	lru   list.List // clean pages, front = LRU

	dirtyCount int64
	dirtyFiles map[int64]*dirtyFile
	dirtyOrder []int64        // round-robin order of inos with dirty pages
	inOrder    map[int64]bool // membership in dirtyOrder (no duplicates)

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

	// Stats.
	statDirtied    int64
	statOverwrites int64
	statFrees      int64
	statHits       int64
	statMisses     int64
}

// New creates a cache and starts its writeback daemon. wbCtx is the identity
// of the writeback task (a kernel thread at priority 4, like Linux's
// pdflush).
func New(env *sim.Env, cfg Config, wbCtx *ioctx.Ctx) *Cache {
	c := &Cache{
		env:            env,
		cfg:            cfg,
		tr:             trace.Nop,
		pages:          make(map[pageKey]*page),
		dirtyFiles:     make(map[int64]*dirtyFile),
		inOrder:        make(map[int64]bool),
		throttleQ:      sim.NewWaitQueue(env),
		wbWake:         sim.NewWaitQueue(env),
		pdflushEnabled: true,
		wbCtx:          wbCtx,
	}
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
	if df, ok := c.dirtyFiles[ino]; ok {
		return int64(len(df.pages))
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
	out := make([]int64, 0, len(c.dirtyFiles))
	for _, ino := range c.dirtyOrder {
		if df, ok := c.dirtyFiles[ino]; ok && len(df.pages) > 0 {
			out = append(out, ino)
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
	_, ok := c.pages[pageKey{ino, idx}]
	return ok
}

// Lookup reports whether page (ino, idx) is resident, promoting it in the
// LRU on a hit. It is one of the cache bucket's profiling probes.
func (c *Cache) Lookup(ino, idx int64) bool {
	perf.Count(perf.BucketCache)
	pg, ok := c.pages[pageKey{ino, idx}]
	if !ok {
		c.statMisses++
		return false
	}
	if pg.lruElem != nil {
		c.lru.MoveToBack(pg.lruElem)
	}
	c.statHits++
	return true
}

// InsertClean adds a clean page (after a disk read), evicting LRU clean
// pages if RAM is full. Inserting an existing page just promotes it.
func (c *Cache) InsertClean(ino, idx int64) {
	key := pageKey{ino, idx}
	if pg, ok := c.pages[key]; ok {
		if pg.lruElem != nil {
			c.lru.MoveToBack(pg.lruElem)
		}
		return
	}
	c.evictIfFull()
	pg := &page{key: key}
	pg.lruElem = c.lru.PushBack(pg)
	c.pages[key] = pg
}

func (c *Cache) evictIfFull() {
	for int64(len(c.pages)) >= c.cfg.TotalPages && c.lru.Len() > 0 {
		front := c.lru.Front()
		pg := front.Value.(*page)
		c.lru.Remove(front)
		delete(c.pages, pg.key)
	}
}

// MarkDirty dirties page (ino, idx) on behalf of ctx, firing the
// buffer-dirty hook. It reports whether the page was already dirty (an
// overwrite, which costs no new disk I/O).
func (c *Cache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	perf.Count(perf.BucketCache)
	key := pageKey{ino, idx}
	newCauses := ctx.Causes()
	pg, ok := c.pages[key]
	if ok && pg.dirty {
		prev := pg.wcauses
		c.tagBytes -= int64(prev.TagBytes())
		pg.wcauses = prev.Union(newCauses)
		c.tagBytes += int64(pg.wcauses.TagBytes())
		c.noteTagMax()
		c.statOverwrites++
		if c.hooks.BufferDirty != nil {
			c.hooks.BufferDirty(ino, idx, pg.wcauses, prev)
		}
		if c.tr.Enabled() {
			now := c.env.Now()
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpDirty, Label: "overwrite",
				Req: ctx.Req, PID: ctx.PID, Causes: pg.wcauses,
				Start: now, End: now, Ino: ino, Page: idx,
			})
		}
		return true
	}
	if !ok {
		c.evictIfFull()
		pg = &page{key: key}
		c.pages[key] = pg
	} else if pg.lruElem != nil {
		c.lru.Remove(pg.lruElem)
		pg.lruElem = nil
	}
	pg.dirty = true
	pg.wcauses = newCauses
	pg.dirtiedAt = c.env.Now()
	c.dirtyCount++
	c.statDirtied++
	c.tagBytes += int64(newCauses.TagBytes())
	c.noteTagMax()
	df, ok := c.dirtyFiles[ino]
	if !ok {
		df = &dirtyFile{ino: ino, pages: make(map[int64]struct{})}
		c.dirtyFiles[ino] = df
	}
	if !c.inOrder[ino] {
		c.inOrder[ino] = true
		c.dirtyOrder = append(c.dirtyOrder, ino)
	}
	df.pages[idx] = struct{}{}
	if c.hooks.BufferDirty != nil {
		c.hooks.BufferDirty(ino, idx, newCauses, causes.None)
	}
	if c.tr.Enabled() {
		now := c.env.Now()
		c.tr.Record(trace.Event{
			Layer: trace.LayerCache, Op: trace.OpDirty,
			Req: ctx.Req, PID: ctx.PID, Causes: newCauses,
			Start: now, End: now, Ino: ino, Page: idx,
		})
	}
	if c.dirtyCount > c.bgThreshold() {
		c.wbWake.Signal()
	}
	return false
}

func (c *Cache) noteTagMax() {
	if c.tagBytes > c.maxTagBytes {
		c.maxTagBytes = c.tagBytes
	}
}

// TakeDirty removes up to max dirty pages of ino (lowest index first),
// marking them clean and returning their indices and cause sets. The caller
// (the file system) is responsible for writing them to disk. Pages
// re-dirtied while in flight simply become dirty again.
func (c *Cache) TakeDirty(ino int64, max int) (idxs []int64, tags []causes.Set) {
	df, ok := c.dirtyFiles[ino]
	if !ok || len(df.pages) == 0 {
		return nil, nil
	}
	if max <= 0 || max > len(df.pages) {
		max = len(df.pages)
	}
	all := make([]int64, 0, len(df.pages))
	for idx := range df.pages {
		all = append(all, idx)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	take := all[:max]
	idxs = make([]int64, 0, len(take))
	tags = make([]causes.Set, 0, len(take))
	for _, idx := range take {
		pg := c.pages[pageKey{ino, idx}]
		idxs = append(idxs, idx)
		tags = append(tags, pg.wcauses)
		c.cleanPage(pg, df)
	}
	c.maybeUnthrottle()
	return idxs, tags
}

func (c *Cache) cleanPage(pg *page, df *dirtyFile) {
	pg.dirty = false
	c.tagBytes -= int64(pg.wcauses.TagBytes())
	pg.wcauses = causes.None
	c.dirtyCount--
	delete(df.pages, pg.key.idx)
	if len(df.pages) == 0 {
		delete(c.dirtyFiles, df.ino)
	}
	pg.lruElem = c.lru.PushBack(pg)
}

// FreeFile drops every page of ino, firing buffer-free hooks for dirty
// pages (I/O work that vanished before writeback).
func (c *Cache) FreeFile(ino int64) {
	if df, ok := c.dirtyFiles[ino]; ok {
		idxs := make([]int64, 0, len(df.pages))
		for idx := range df.pages {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			pg := c.pages[pageKey{ino, idx}]
			if c.hooks.BufferFree != nil {
				c.hooks.BufferFree(ino, idx, pg.wcauses)
			}
			if c.tr.Enabled() {
				now := c.env.Now()
				c.tr.Record(trace.Event{
					Layer: trace.LayerCache, Op: trace.OpBufferFree,
					PID: 0, Causes: pg.wcauses,
					Start: now, End: now, Ino: ino, Page: idx,
				})
			}
			c.statFrees++
			c.tagBytes -= int64(pg.wcauses.TagBytes())
			c.dirtyCount--
			delete(c.pages, pg.key)
		}
		delete(c.dirtyFiles, ino)
	}
	// Drop clean pages too (they are in the LRU).
	for e := c.lru.Front(); e != nil; {
		next := e.Next()
		pg := e.Value.(*page)
		if pg.key.ino == ino {
			c.lru.Remove(e)
			delete(c.pages, pg.key)
		}
		e = next
	}
	c.maybeUnthrottle()
}

// CheckConsistency verifies the cache's internal invariants: the dirty
// counter matches the per-file dirty sets, page flags agree with set
// membership, tag accounting matches the dirty pages' tags, and clean pages
// are exactly the LRU members. Stress tests call it after random workloads.
func (c *Cache) CheckConsistency() error {
	var dirty int64
	var tagSum int64
	// Iterate in sorted key order so the first violation reported is the
	// same on every run (map order would make the error message — exported
	// output — nondeterministic).
	keys := make([]pageKey, 0, len(c.pages))
	for key := range c.pages {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ino != keys[j].ino {
			return keys[i].ino < keys[j].ino
		}
		return keys[i].idx < keys[j].idx
	})
	for _, key := range keys {
		pg := c.pages[key]
		if pg.key != key {
			return fmt.Errorf("cache: page key mismatch at %v", key)
		}
		if pg.dirty {
			dirty++
			tagSum += int64(pg.wcauses.TagBytes())
			df, ok := c.dirtyFiles[key.ino]
			if !ok {
				return fmt.Errorf("cache: dirty page %v not in dirtyFiles", key)
			}
			if _, ok := df.pages[key.idx]; !ok {
				return fmt.Errorf("cache: dirty page %v missing from file set", key)
			}
			if pg.lruElem != nil {
				return fmt.Errorf("cache: dirty page %v on clean LRU", key)
			}
		} else if pg.lruElem == nil {
			return fmt.Errorf("cache: clean page %v not on LRU", key)
		}
	}
	if dirty != c.dirtyCount {
		return fmt.Errorf("cache: dirtyCount %d != actual %d", c.dirtyCount, dirty)
	}
	if tagSum != c.tagBytes {
		return fmt.Errorf("cache: tagBytes %d != actual %d", c.tagBytes, tagSum)
	}
	var inSets int64
	inos := make([]int64, 0, len(c.dirtyFiles))
	for ino := range c.dirtyFiles {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		df := c.dirtyFiles[ino]
		idxs := make([]int64, 0, len(df.pages))
		for idx := range df.pages {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			pg, ok := c.pages[pageKey{ino, idx}]
			if !ok || !pg.dirty {
				return fmt.Errorf("cache: dirtyFiles entry (%d,%d) has no dirty page", ino, idx)
			}
			inSets++
		}
	}
	if inSets != dirty {
		return fmt.Errorf("cache: dirty sets hold %d pages, flags say %d", inSets, dirty)
	}
	return nil
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

// FlushAsync asks the writeback daemon to flush ino ahead of the normal
// round-robin order (used by Split-Deadline's cost-spreading pre-flush).
func (c *Cache) FlushAsync(ino int64) {
	c.flushHint = append(c.flushHint, ino)
	c.wbWake.Signal()
}

// Writeback synchronously flushes up to max dirty pages of ino using the
// installed writeback function, blocking p until the writes complete. It
// returns pages flushed.
func (c *Cache) Writeback(p *sim.Proc, ino int64, max int) int {
	if c.writeback == nil {
		return 0
	}
	traced := c.tr.Enabled()
	var start sim.Time
	if traced {
		// Each writeback round is its own request tree: stamp the writeback
		// identity so the flush, block, and device spans below all link up.
		c.wbCtx.Req = c.tr.NextReq()
		start = c.env.Now()
	}
	depth := c.dirtyCount
	var n int
	p.Await(func(resume func()) {
		c.writeback(ino, max, func(got int) {
			n = got
			resume()
		})
	})
	if traced {
		c.tr.Record(trace.Event{
			Layer: trace.LayerCache, Op: trace.OpWriteback, Label: "sync",
			Req: c.wbCtx.Req, PID: c.wbCtx.PID, Depth: depth,
			Start: start, End: c.env.Now(), Ino: ino, Blocks: n,
		})
	}
	return n
}

// nextDirtyIno returns the next file to write back: scheduler hints first,
// then the file with the most dirty pages. Largest-first approximates
// Linux's proportional writeback (flusher effort follows dirty share), so a
// process admitted more writes also receives more drain.
func (c *Cache) nextDirtyIno() (int64, bool) {
	for len(c.flushHint) > 0 {
		ino := c.flushHint[0]
		c.flushHint = c.flushHint[1:]
		if c.FileDirtyPages(ino) > 0 {
			return ino, true
		}
	}
	bestIno, bestN := int64(0), 0
	for _, ino := range c.dirtyOrder {
		if df, ok := c.dirtyFiles[ino]; ok && len(df.pages) > bestN {
			bestIno, bestN = ino, len(df.pages)
		}
	}
	if bestN == 0 {
		// Compact stale entries.
		c.dirtyOrder = c.dirtyOrder[:0]
		for ino := range c.inOrder {
			delete(c.inOrder, ino)
		}
		return 0, false
	}
	return bestIno, true
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
	traced := c.tr.Enabled()
	var start sim.Time
	if traced {
		c.wbCtx.Req = c.tr.NextReq()
		start = c.env.Now()
	}
	depth := c.dirtyCount
	c.writeback(ino, c.cfg.WritebackBatch, func(n int) {
		if traced {
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpWriteback, Label: "pdflush",
				Req: c.wbCtx.Req, PID: c.wbCtx.PID, Depth: depth,
				Start: start, End: c.env.Now(), Ino: ino, Blocks: n,
			})
		}
		c.maybeUnthrottle()
		c.pdflushLoop()
	})
}
