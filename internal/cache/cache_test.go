package cache

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

func testCtx(pid causes.PID) *ioctx.Ctx {
	return &ioctx.Ctx{PID: pid, Name: "test", Prio: 4}
}

func newTestCache(cfg Config) (*sim.Env, *Cache) {
	env := sim.NewEnv(1)
	wb := &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4}
	return env, New(env, cfg, wb)
}

func smallConfig() Config {
	return Config{
		TotalPages:           1024,
		DirtyRatio:           0.5,
		DirtyBackgroundRatio: 0.25,
		WritebackInterval:    5 * time.Second,
		WritebackBatch:       64,
	}
}

func TestLookupMissThenHit(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	if c.Lookup(1, 0) {
		t.Fatal("lookup on empty cache hit")
	}
	c.InsertClean(1, 0)
	if !c.Lookup(1, 0) {
		t.Fatal("inserted page missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestMarkDirtyAndCounts(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	ctx := testCtx(10)
	if wasDirty := c.MarkDirty(ctx, 1, 0); wasDirty {
		t.Fatal("fresh page reported dirty")
	}
	if c.DirtyPagesCount() != 1 || c.DirtyBytes() != PageSize {
		t.Fatalf("dirty count %d bytes %d", c.DirtyPagesCount(), c.DirtyBytes())
	}
	if wasDirty := c.MarkDirty(ctx, 1, 0); !wasDirty {
		t.Fatal("overwrite not reported")
	}
	if c.DirtyPagesCount() != 1 {
		t.Fatal("overwrite double-counted")
	}
	if c.FileDirtyPages(1) != 1 {
		t.Fatalf("FileDirtyPages = %d", c.FileDirtyPages(1))
	}
}

func TestBufferDirtyHook(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	var fresh, overwrite int
	var lastPrev causes.Set
	c.SetHooks(MemHooks{
		BufferDirty: func(ino, idx int64, now, prev causes.Set) {
			if prev.Empty() {
				fresh++
			} else {
				overwrite++
				lastPrev = prev
			}
		},
	})
	c.MarkDirty(testCtx(10), 1, 0)
	c.MarkDirty(testCtx(11), 1, 0)
	if fresh != 1 || overwrite != 1 {
		t.Fatalf("fresh=%d overwrite=%d", fresh, overwrite)
	}
	if !lastPrev.Equal(causes.Of(10)) {
		t.Fatalf("prev causes = %v", lastPrev)
	}
}

func TestCauseUnionOnSharedPage(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	c.MarkDirty(testCtx(10), 1, 0)
	c.MarkDirty(testCtx(11), 1, 0)
	idxs, tags := c.TakeDirty(1, 10)
	if len(idxs) != 1 {
		t.Fatalf("TakeDirty returned %d pages", len(idxs))
	}
	if !tags[0].Equal(causes.Of(10, 11)) {
		t.Fatalf("tags = %v, want {10,11}", tags[0])
	}
}

func TestProxyTagging(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	wb := testCtx(2)
	wb.BeginProxy(causes.Of(10, 11))
	c.MarkDirty(wb, 5, 0)
	_, tags := c.TakeDirty(5, 1)
	if !tags[0].Equal(causes.Of(10, 11)) {
		t.Fatalf("proxy dirty tagged %v, want {10,11}", tags[0])
	}
}

func TestTakeDirtySortedAndCleans(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	ctx := testCtx(10)
	for _, idx := range []int64{5, 1, 3} {
		c.MarkDirty(ctx, 1, idx)
	}
	idxs, _ := c.TakeDirty(1, 2)
	if len(idxs) != 2 || idxs[0] != 1 || idxs[1] != 3 {
		t.Fatalf("TakeDirty = %v, want [1 3]", idxs)
	}
	if c.DirtyPagesCount() != 1 {
		t.Fatalf("dirty count after take = %d", c.DirtyPagesCount())
	}
	// Taken pages remain resident (clean).
	if !c.Lookup(1, 1) {
		t.Fatal("cleaned page evicted")
	}
}

func TestTagAccounting(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	c.MarkDirty(testCtx(10), 1, 0)
	c.MarkDirty(testCtx(10), 1, 1)
	if c.TagBytes() <= 0 {
		t.Fatal("tag bytes not accounted")
	}
	peak := c.MaxTagBytes()
	c.TakeDirty(1, 10)
	if c.TagBytes() != 0 {
		t.Fatalf("tag bytes after clean = %d", c.TagBytes())
	}
	if c.MaxTagBytes() != peak {
		t.Fatal("max watermark changed on clean")
	}
}

func TestFreeFileFiresBufferFree(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	freed := 0
	c.SetHooks(MemHooks{BufferFree: func(ino, idx int64, cs causes.Set) { freed++ }})
	ctx := testCtx(10)
	c.MarkDirty(ctx, 1, 0)
	c.MarkDirty(ctx, 1, 1)
	c.InsertClean(1, 2)
	c.FreeFile(1)
	if freed != 2 {
		t.Fatalf("buffer-free fired %d times, want 2 (dirty pages only)", freed)
	}
	if c.DirtyPagesCount() != 0 {
		t.Fatal("dirty pages remain after FreeFile")
	}
	if c.Lookup(1, 2) {
		t.Fatal("clean page survived FreeFile")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 4
	env, c := newTestCache(cfg)
	defer env.Close()
	for i := int64(0); i < 4; i++ {
		c.InsertClean(1, i)
	}
	// Touch page 0 so page 1 is LRU.
	c.Lookup(1, 0)
	c.InsertClean(1, 100)
	if c.Lookup(1, 1) {
		t.Fatal("LRU page not evicted")
	}
	if !c.Lookup(1, 0) {
		t.Fatal("recently used page evicted")
	}
}

func TestDirtyPagesNotEvicted(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 2
	env, c := newTestCache(cfg)
	defer env.Close()
	c.MarkDirty(testCtx(10), 1, 0)
	c.MarkDirty(testCtx(10), 1, 1)
	c.InsertClean(1, 2) // no clean page to evict; inserts anyway
	if !c.Lookup(1, 0) || !c.Lookup(1, 1) {
		t.Fatal("dirty page evicted")
	}
}

func TestThrottleBlocksUntilWriteback(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 100
	cfg.DirtyRatio = 0.2 // 20 pages
	cfg.DirtyBackgroundRatio = 0.1
	env, c := newTestCache(cfg)
	defer env.Close()
	// Writeback drops pages instantly but takes simulated time via nothing;
	// use the default drop path (no FS attached).
	var resumed sim.Time
	env.Go("writer", func(p *sim.Proc) {
		ctx := testCtx(10)
		for i := int64(0); i < 30; i++ {
			c.MarkDirty(ctx, 1, i)
		}
		c.Throttle(p)
		resumed = p.Now()
	})
	env.Run(sim.Time(time.Minute))
	if c.DirtyPagesCount() > 20 {
		t.Fatalf("dirty pages %d still over threshold", c.DirtyPagesCount())
	}
	_ = resumed
}

func TestPdflushPeriodicFlush(t *testing.T) {
	cfg := smallConfig()
	env, c := newTestCache(cfg)
	defer env.Close()
	ctx := testCtx(10)
	env.Go("writer", func(p *sim.Proc) {
		c.MarkDirty(ctx, 1, 0) // below background threshold
	})
	env.Run(sim.Time(30 * time.Second))
	if c.DirtyPagesCount() != 0 {
		t.Fatalf("periodic writeback did not flush; dirty=%d", c.DirtyPagesCount())
	}
}

func TestWritebackFnCalled(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 40
	cfg.DirtyBackgroundRatio = 0.25 // 10 pages
	env, c := newTestCache(cfg)
	defer env.Close()
	flushed := 0
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := c.TakeDirty(ino, max)
		flushed += len(idxs)
		env.Schedule(time.Millisecond, func() { done(len(idxs)) })
	})
	env.Go("writer", func(p *sim.Proc) {
		ctx := testCtx(10)
		for i := int64(0); i < 20; i++ {
			c.MarkDirty(ctx, 1, i)
		}
	})
	env.Run(sim.Time(time.Minute))
	if flushed != 20 {
		t.Fatalf("flushed = %d, want 20", flushed)
	}
}

// TestWritebackBlocksUntilDone drives the blocking Writeback that split
// schedulers call from their pacer processes: the caller stays parked until
// the callback reports completion and gets its page count.
func TestWritebackBlocksUntilDone(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	c.SetPdflushEnabled(false)
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := c.TakeDirty(ino, max)
		env.Schedule(3*time.Millisecond, func() { done(len(idxs)) })
	})
	var n int
	var at sim.Time
	env.Go("pacer", func(p *sim.Proc) {
		for i := int64(0); i < 5; i++ {
			c.MarkDirty(testCtx(10), 1, i)
		}
		n = c.Writeback(p, 1, 3)
		at = p.Now()
	})
	env.Run(sim.Time(time.Second))
	if n != 3 || at != sim.Time(3*time.Millisecond) {
		t.Fatalf("Writeback returned %d pages at %v, want 3 at 3ms", n, at)
	}
	if c.DirtyPagesCount() != 2 {
		t.Fatalf("dirty = %d, want 2 left", c.DirtyPagesCount())
	}
}

func TestPdflushDisabled(t *testing.T) {
	cfg := smallConfig()
	env, c := newTestCache(cfg)
	defer env.Close()
	c.SetPdflushEnabled(false)
	env.Go("writer", func(p *sim.Proc) {
		c.MarkDirty(testCtx(10), 1, 0)
	})
	env.Run(sim.Time(time.Minute))
	if c.DirtyPagesCount() != 1 {
		t.Fatal("disabled pdflush still flushed")
	}
	// Re-enabling resumes writeback.
	c.SetPdflushEnabled(true)
	env.Run(sim.Time(2 * time.Minute))
	if c.DirtyPagesCount() != 0 {
		t.Fatal("re-enabled pdflush did not flush")
	}
}

func TestFlushAsyncPrioritizesFile(t *testing.T) {
	cfg := smallConfig()
	env, c := newTestCache(cfg)
	defer env.Close()
	var order []int64
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := c.TakeDirty(ino, max)
		if len(idxs) > 0 {
			order = append(order, ino)
		}
		env.Schedule(time.Millisecond, func() { done(len(idxs)) })
	})
	env.Go("writer", func(p *sim.Proc) {
		for ino := int64(1); ino <= 3; ino++ {
			c.MarkDirty(testCtx(10), ino, 0)
		}
		c.FlushAsync(3)
	})
	env.Run(sim.Time(time.Minute))
	if len(order) == 0 || order[0] != 3 {
		t.Fatalf("flush order = %v, want file 3 first", order)
	}
}

// TestFlushAsyncDroppedWhilePdflushDisabled: a hint given while the daemon
// is off is not queued, so once pdflush is back it keeps its largest-first
// order instead of replaying stale hints.
func TestFlushAsyncDroppedWhilePdflushDisabled(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	var order []int64
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := c.TakeDirty(ino, max)
		if len(idxs) > 0 {
			order = append(order, ino)
		}
		env.Schedule(time.Millisecond, func() { done(len(idxs)) })
	})
	c.SetPdflushEnabled(false)
	for ino := int64(1); ino <= 3; ino++ {
		pages := int64(1)
		if ino == 1 {
			pages = 3
		}
		for i := int64(0); i < pages; i++ {
			c.MarkDirty(testCtx(10), ino, i)
		}
	}
	c.FlushAsync(3)
	c.SetPdflushEnabled(true)
	env.Run(sim.Time(time.Minute))
	if len(order) == 0 || order[0] != 1 {
		t.Fatalf("flush order = %v, want largest file 1 first", order)
	}
}

func TestTakeDirtyEmptyFile(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	idxs, tags := c.TakeDirty(99, 10)
	if idxs != nil || tags != nil {
		t.Fatal("TakeDirty on unknown file returned pages")
	}
}

func TestRedirtyDuringFlightCountsAgain(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	ctx := testCtx(10)
	c.MarkDirty(ctx, 1, 0)
	c.TakeDirty(1, 1)
	if was := c.MarkDirty(ctx, 1, 0); was {
		t.Fatal("re-dirty after take should be fresh")
	}
	if c.DirtyPagesCount() != 1 {
		t.Fatalf("dirty count = %d", c.DirtyPagesCount())
	}
}

// TestMarkDirtyRangeMatchesPerPage dirties one range on twin caches, once
// with MarkDirtyRange and once page by page. Both must fire the same
// buffer-dirty hooks and trace events in the same order, across chunk
// boundaries, overwrites and evictions, but the range counts one cache
// probe.
func TestMarkDirtyRangeMatchesPerPage(t *testing.T) {
	type dirtied struct {
		ino, idx  int64
		now, prev causes.Set
	}
	perf.ResetForTest()
	perf.Enable()
	defer perf.ResetForTest()
	const first, last = 55, 140
	run := func(mark func(c *Cache, ctx *ioctx.Ctx)) ([]dirtied, []trace.Event, int64) {
		cfg := smallConfig()
		cfg.TotalPages = 96
		env, c := newTestCache(cfg)
		defer env.Close()
		for i := int64(0); i <= 40; i++ {
			c.InsertClean(2, i) // evicted once the range fills RAM
		}
		for i := int64(60); i <= 70; i++ {
			c.InsertClean(1, i)
		}
		for i := int64(62); i <= 66; i += 2 {
			c.MarkDirty(testCtx(10), 1, i)
		}
		var got []dirtied
		c.SetHooks(MemHooks{BufferDirty: func(ino, idx int64, now, prev causes.Set) {
			got = append(got, dirtied{ino, idx, now, prev})
		}})
		tr := trace.New()
		var events collectSink
		tr.Attach(&events)
		tr.Enable()
		c.SetTracer(tr)
		before := perf.TakeSnapshot()
		mark(c, testCtx(11))
		calls := perf.Delta(before, perf.TakeSnapshot()).Buckets[perf.BucketCache].Calls
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if c.Peek(2, 0) {
			t.Fatal("the range evicted no page")
		}
		return got, events, calls
	}
	rangeHooks, rangeEvents, rangeCalls := run(func(c *Cache, ctx *ioctx.Ctx) {
		if n := c.MarkDirtyRange(ctx, 1, first, last); n != 3 {
			t.Fatalf("MarkDirtyRange overwrote %d pages, want 3", n)
		}
	})
	pageHooks, pageEvents, pageCalls := run(func(c *Cache, ctx *ioctx.Ctx) {
		for i := int64(first); i <= last; i++ {
			c.MarkDirty(ctx, 1, i)
		}
	})
	if len(rangeHooks) != last-first+1 || !reflect.DeepEqual(rangeHooks, pageHooks) {
		t.Fatalf("buffer-dirty hooks differ:\nrange    %v\nper page %v", rangeHooks, pageHooks)
	}
	if len(rangeEvents) != last-first+1 || !reflect.DeepEqual(rangeEvents, pageEvents) {
		t.Fatalf("dirty trace events differ:\nrange    %v\nper page %v", rangeEvents, pageEvents)
	}
	if rangeCalls != 1 || pageCalls != last-first+1 {
		t.Fatalf("cache probe counted %d times for the range, %d page by page; want 1 and %d", rangeCalls, pageCalls, last-first+1)
	}
}

// ringOrder lists c's clean pages from least to most recently used.
func ringOrder(c *Cache) [][2]int64 {
	var out [][2]int64
	for pg := c.lru.next; pg != &c.lru; pg = pg.next {
		out = append(out, [2]int64{pg.ch.file.ino, pg.idx})
	}
	return out
}

// TestLookupRunMatchesPerPage puts twin caches into the same random
// residency, clean and dirty pages mixed across chunk boundaries, and reads
// the same ranges from them, with LookupRun on one and Lookup page by page
// on the other. Both must see the same runs, count the same hits and
// misses, leave the same LRU ring, and evict the same pages afterwards; the
// run lookups count one cache probe per run.
func TestLookupRunMatchesPerPage(t *testing.T) {
	type run struct {
		first, n int64
		hit      bool
	}
	perf.ResetForTest()
	perf.Enable()
	defer perf.ResetForTest()
	const span = 320 // five chunks
	rng := rand.New(rand.NewSource(7))
	var reads [][2]int64
	for i := 0; i < 300; i++ {
		first := rng.Int63n(span)
		reads = append(reads, [2]int64{first, first + rng.Int63n(span-first)})
		if i%10 == 0 {
			reads = append(reads, reads[len(reads)-1]) // the same range twice: its stretch ends at the tail
		}
	}
	setup := func() (*sim.Env, *Cache) {
		cfg := smallConfig()
		cfg.TotalPages = 400
		env, c := newTestCache(cfg)
		c.SetPdflushEnabled(false)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 60; i++ {
			ino, first := 1+rng.Int63n(2), rng.Int63n(span)
			last := min(first+rng.Int63n(12), span-1)
			switch rng.Intn(4) {
			case 0:
				c.MarkDirtyRange(testCtx(10), ino, first, last)
			case 1:
				for idx := last; idx >= first; idx-- {
					c.InsertClean(ino, idx) // linked in reverse order
				}
			default:
				c.InsertCleanRange(ino, first, last)
			}
		}
		// File 3 holds all of chunk 0 and nothing of chunk 1, so its hit
		// runs end at a chunk boundary, and a few pages of chunk 2.
		c.InsertCleanRange(3, 0, 63)
		c.InsertCleanRange(3, 150, 155)
		return env, c
	}
	var runs [2][]run
	var rings [2][][2]int64
	var hits, misses, calls [2]int64
	var evicted [2][][2]int64
	for side := range 2 {
		env, c := setup()
		before := perf.TakeSnapshot()
		for _, r := range reads {
			ino := 1 + int64(len(runs[side])%4) // file 4 is never resident
			if side == 0 {
				for idx := r[0]; idx <= r[1]; {
					n, hit := c.LookupRun(ino, idx, r[1])
					runs[side] = append(runs[side], run{idx, n, hit})
					idx += n
				}
				continue
			}
			for idx := r[0]; idx <= r[1]; idx++ {
				hit := c.Lookup(ino, idx)
				if k := len(runs[side]) - 1; idx > r[0] && runs[side][k].hit == hit {
					runs[side][k].n++
					continue
				}
				runs[side] = append(runs[side], run{idx, 1, hit})
			}
		}
		calls[side] = perf.Delta(before, perf.TakeSnapshot()).Buckets[perf.BucketCache].Calls
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		rings[side] = ringOrder(c)
		hits[side], misses[side] = c.Hits(), c.Misses()
		for idx := int64(0); idx < 150; idx++ {
			c.InsertClean(5, idx)
		}
		for _, pg := range rings[side] {
			if !c.Peek(pg[0], pg[1]) {
				evicted[side] = append(evicted[side], pg)
			}
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		env.Close()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("runs differ:\nLookupRun %v\nper page  %v", runs[0], runs[1])
	}
	if !reflect.DeepEqual(rings[0], rings[1]) {
		t.Fatalf("LRU rings differ:\nLookupRun %v\nper page  %v", rings[0], rings[1])
	}
	if hits[0] != hits[1] || misses[0] != misses[1] {
		t.Fatalf("hits/misses %d/%d with LookupRun, %d/%d page by page", hits[0], misses[0], hits[1], misses[1])
	}
	if len(evicted[0]) == 0 || !reflect.DeepEqual(evicted[0], evicted[1]) {
		t.Fatalf("evicted pages differ:\nLookupRun %v\nper page  %v", evicted[0], evicted[1])
	}
	if calls[0] != int64(len(runs[0])) {
		t.Fatalf("cache probe counted %d times for %d runs", calls[0], len(runs[0]))
	}
	var hitRuns, missRuns int
	for _, r := range runs[0] {
		if r.hit {
			hitRuns++
		} else {
			missRuns++
		}
	}
	t.Logf("%d hit runs, %d miss runs, %d pages evicted, %d probes page by page", hitRuns, missRuns, len(evicted[0]), calls[1])
}

// TestSparseResidencyMemory guards the page table's memory when residency
// is sparse, as under a random reader: one clean page in every aligned
// 64-page stretch must not cost a whole stretch's worth of page records.
func TestSparseResidencyMemory(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 1 << 20
	env, c := newTestCache(cfg)
	defer env.Close()
	const pages = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(0); i < pages; i++ {
		c.InsertClean(1, i*64)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPage := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / pages
	t.Logf("%d heap bytes per resident page", perPage)
	if perPage > 512 {
		t.Fatalf("%d heap bytes per sparsely resident page, want at most 512", perPage)
	}
	runtime.KeepAlive(c)
}

// collectSink is a trace sink that keeps every event.
type collectSink []trace.Event

func (c *collectSink) Consume(ev trace.Event) { *c = append(*c, ev) }
