// Microbenchmarks for the page cache's hot paths, which `make microbench`
// tracks directly: the single-page lookup, the read path's run lookup (one
// call per hit or miss run), the write path's range dirtying (one call per
// write, overwriting dirty pages or dirtying clean ones that writeback then
// takes, or dirtying fresh pages into a full cache), and clean inserts into a
// sparsely resident file.
package cache_test

import (
	"testing"

	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
)

func benchCache(b *testing.B) *cache.Cache {
	b.Helper()
	env := sim.NewEnv(1)
	b.Cleanup(env.Close)
	cfg := cache.DefaultConfig()
	cfg.TotalPages = 1 << 16
	return cache.New(env, cfg, &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4})
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := benchCache(b)
	const pages = 1024
	for i := int64(0); i < pages; i++ {
		c.InsertClean(1, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1, int64(i)%pages)
	}
}

func BenchmarkCacheLookupMiss(b *testing.B) {
	c := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(2, int64(i))
	}
}

// BenchmarkCacheLookupRunHit re-reads resident 256-page runs of two files in
// turn, one call per run, the shape of Fig 15's mem-read antagonists: each
// re-read finds its pages' ring nodes behind the other file's and moves
// them to the LRU tail.
func BenchmarkCacheLookupRunHit(b *testing.B) {
	c := benchCache(b)
	const pages = 256
	c.InsertCleanRange(1, 0, pages-1)
	c.InsertCleanRange(2, 0, pages-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, hit := c.LookupRun(int64(1+i%2), 0, pages-1); n != pages || !hit {
			b.Fatalf("LookupRun = %d, %v, want %d, true", n, hit, pages)
		}
	}
}

// BenchmarkCacheMarkDirtyRangeOverwrite rewrites 1024 already-dirty pages
// per call, the shape of Fig 11's mem-overwrite writer.
func BenchmarkCacheMarkDirtyRangeOverwrite(b *testing.B) {
	c := benchCache(b)
	c.SetPdflushEnabled(false)
	ctx := &ioctx.Ctx{PID: 100, Name: "writer", Prio: 4}
	const pages = 1024
	c.MarkDirtyRange(ctx, 1, 0, pages-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarkDirtyRange(ctx, 1, 0, pages-1)
	}
}

// BenchmarkCacheMarkDirtyRangeFresh dirties 1024 clean pages per call and
// then takes them all for writeback, the write-then-writeback shape of
// Fig 21 and the crash sweep.
func BenchmarkCacheMarkDirtyRangeFresh(b *testing.B) {
	c := benchCache(b)
	c.SetPdflushEnabled(false)
	ctx := &ioctx.Ctx{PID: 100, Name: "writer", Prio: 4}
	const pages = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarkDirtyRange(ctx, 1, 0, pages-1)
		var taken int64
		c.TakeDirty(1, 0, func(_, n int64, _ causes.Set) { taken += n })
		if taken != pages {
			b.Fatalf("TakeDirty took %d pages, want %d", taken, pages)
		}
	}
}

// BenchmarkCacheMarkDirtyRangeEvicting dirties fresh 256-page runs into a
// full cache and takes each for writeback, the shape of Fig 21's HDFS
// writers: every fresh page evicts the least recently used clean page, and
// the pages taken become the clean pages later runs evict.
func BenchmarkCacheMarkDirtyRangeEvicting(b *testing.B) {
	c := benchCache(b)
	c.SetPdflushEnabled(false)
	ctx := &ioctx.Ctx{PID: 100, Name: "writer", Prio: 4}
	const pages = 256
	c.InsertCleanRange(2, 0, c.Config().TotalPages-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := int64(i) * pages
		c.MarkDirtyRange(ctx, 1, first, first+pages-1)
		var taken int64
		c.TakeDirty(1, 0, func(_, n int64, _ causes.Set) { taken += n })
		if taken != pages {
			b.Fatalf("TakeDirty took %d pages, want %d", taken, pages)
		}
	}
}

// BenchmarkCacheInsertCleanSparse inserts clean pages one per 64-page
// stretch, as a random reader does, evicting once RAM is full.
func BenchmarkCacheInsertCleanSparse(b *testing.B) {
	c := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InsertClean(1, int64(i)*64)
	}
}
