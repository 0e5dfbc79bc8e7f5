package cache

import (
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
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
