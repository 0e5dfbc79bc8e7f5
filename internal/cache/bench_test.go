// Microbenchmarks for the page cache's hot paths, which `make microbench`
// tracks directly: the read-path lookup, the write path's range dirtying
// (one call per write), and clean inserts into a sparsely resident file.
package cache_test

import (
	"testing"

	"splitio/internal/cache"
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
