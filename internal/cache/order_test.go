package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// These tests pin the orderings the schedule goldens depend on: which file
// writeback picks, where a file sits in DirtyFiles, and which pages
// TakeDirty hands out.

// takePages calls TakeDirty and expands the runs it hands out page by page,
// returning the pages in order and each page's cause set (nil, nil when it
// hands out none). It fails t unless the runs keep TakeDirty's contract:
// non-empty, ascending, non-overlapping and each within one chunk, and a
// run that ends where the next begins in the same chunk has a different set.
func takePages(t testing.TB, c *Cache, ino int64, max int) (idxs []int64, tags []causes.Set) {
	t.Helper()
	c.TakeDirty(ino, max, func(first, n int64, cs causes.Set) {
		t.Helper()
		k := len(idxs)
		if n <= 0 || first>>ChunkShift != (first+n-1)>>ChunkShift || k > 0 && first <= idxs[k-1] ||
			k > 0 && first == idxs[k-1]+1 && first&(ChunkPages-1) != 0 && cs.Equal(tags[k-1]) {
			t.Fatalf("TakeDirty(%d, %d) ran pages %d+%d with %v after pages %v with %v", ino, max, first, n, cs, idxs, tags)
		}
		for idx := first; idx < first+n; idx++ {
			idxs = append(idxs, idx)
			tags = append(tags, cs)
		}
	})
	return idxs, tags
}

func TestWritebackPicksLargestFileTieToFirstDirtied(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	var order []int64
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := takePages(t, c, ino, max)
		order = append(order, ino)
		done(len(idxs))
	})
	ctx := testCtx(10)
	dirty := func(ino int64, n int64) {
		for i := int64(0); i < n; i++ {
			c.MarkDirty(ctx, ino, i)
		}
	}
	dirty(7, 2)
	dirty(3, 3)
	dirty(5, 3)
	dirty(9, 1)
	env.Run(sim.Time(time.Minute))
	if want := []int64{3, 5, 7, 9}; !reflect.DeepEqual(order, want) {
		t.Fatalf("writeback order = %v, want %v", order, want)
	}
}

func TestDirtyFilesKeepsPlaceUntilAllClean(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	c.SetPdflushEnabled(false)
	ctx := testCtx(10)
	check := func(want ...int64) {
		t.Helper()
		if got := c.DirtyFiles(); !reflect.DeepEqual(got, want) {
			t.Fatalf("DirtyFiles = %v, want %v", got, want)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ino := range []int64{1, 2, 3} {
		c.MarkDirty(ctx, ino, 0)
	}
	check(1, 2, 3)
	takePages(t, c, 1, 0)
	check(2, 3)
	c.MarkDirty(ctx, 1, 4)
	check(1, 2, 3) // cleaned, then re-dirtied: back in its old place
	c.FreeFile(2)
	check(1, 3)
	c.MarkDirty(ctx, 2, 0)
	check(1, 2, 3) // freed, then re-dirtied: back in its old place
	takePages(t, c, 1, 0)
	takePages(t, c, 2, 0)
	takePages(t, c, 3, 0)
	c.MarkDirty(ctx, 3, 0)
	c.MarkDirty(ctx, 1, 0)
	check(1, 3) // no daemon pass saw the cache clean: the order stands
	takePages(t, c, 1, 0)
	takePages(t, c, 3, 0)
	// With every file clean, a daemon pass (here a flush hint on a clean
	// file) finds nothing to write and resets the order.
	c.SetPdflushEnabled(true)
	c.FlushAsync(1)
	env.Run(sim.Time(time.Millisecond))
	c.MarkDirty(ctx, 3, 0)
	c.MarkDirty(ctx, 1, 0)
	check(3, 1)
}

func TestInsertCleanAfterFreeFileIsEvictable(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 2
	env, c := newTestCache(cfg)
	defer env.Close()
	c.SetPdflushEnabled(false)
	c.MarkDirty(testCtx(10), 1, 0)
	c.FreeFile(1)
	// A read that completes after unlink inserts into the freed file.
	c.InsertClean(1, 5)
	if !c.Peek(1, 5) {
		t.Fatal("page inserted after FreeFile is not resident")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	c.InsertClean(2, 0)
	c.InsertClean(2, 1) // RAM full: evicts the LRU page, (1, 5)
	if c.Peek(1, 5) {
		t.Fatal("page inserted after FreeFile was never evicted")
	}
	if !c.Peek(2, 0) || !c.Peek(2, 1) {
		t.Fatal("wrong page evicted")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTakeDirtyPrefixAcrossTakes(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	c.SetPdflushEnabled(false)
	ctx := testCtx(10)
	take := func(max int, want ...int64) {
		t.Helper()
		idxs, tags := takePages(t, c, 1, max)
		if !reflect.DeepEqual(idxs, want) {
			t.Fatalf("TakeDirty(1, %d) = %v, want %v", max, idxs, want)
		}
		if len(tags) != len(idxs) {
			t.Fatalf("%d tags for %d pages", len(tags), len(idxs))
		}
	}
	for _, idx := range []int64{9, 2, 7, 4, 5} {
		c.MarkDirty(ctx, 1, idx)
	}
	take(2, 2, 4)
	c.MarkDirty(ctx, 1, 3)
	c.MarkDirty(ctx, 1, 1)
	take(3, 1, 3, 5)
	c.MarkDirty(ctx, 1, 8)
	c.MarkDirty(ctx, 1, 300) // past the small-integer range
	take(2, 7, 8)
	take(0, 9, 300)
	// A run ends at a chunk boundary, even between pages of one set, and
	// where the next page has another set.
	c.MarkDirtyRange(ctx, 1, 60, 70)
	c.MarkDirty(testCtx(11), 1, 71)
	var runs []string
	c.TakeDirty(1, 0, func(first, n int64, cs causes.Set) {
		runs = append(runs, fmt.Sprintf("%d+%d %v", first, n, cs))
	})
	if want := []string{"60+4 {10}", "64+7 {10}", "71+1 {11}"}; !slices.Equal(runs, want) {
		t.Fatalf("TakeDirty ran %q, want %q", runs, want)
	}
}

// TestRandomOpsKeepInvariants drives a small cache (so pages get evicted)
// with a seeded mix of operations, checking the internal invariants after
// every one and every TakeDirty result against a model of the dirty set.
// Page indices span several chunks and ranges cross chunk boundaries, so
// eviction and FreeFile empty and free chunks.
func TestRandomOpsKeepInvariants(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 24
	for seed := int64(1); seed <= 4; seed++ {
		env, c := newTestCache(cfg)
		c.SetPdflushEnabled(false)
		rng := rand.New(rand.NewSource(seed))
		model := map[int64]map[int64]bool{} // ino -> dirty page indices
		dirty := func(ino, idx int64) {
			if model[ino] == nil {
				model[ino] = map[int64]bool{}
			}
			model[ino][idx] = true
		}
		for op := 0; op < 4000; op++ {
			ino := 1 + rng.Int63n(4)
			idx := rng.Int63n(200)
			if rng.Intn(8) == 0 {
				idx += 1000
			}
			switch r := rng.Intn(20); {
			case r < 7:
				was := c.MarkDirty(testCtx(causes.PID(10+rng.Intn(3))), ino, idx)
				if was != model[ino][idx] {
					t.Fatalf("seed %d op %d: MarkDirty(%d, %d) = %v, model says %v", seed, op, ino, idx, was, !was)
				}
				dirty(ino, idx)
			case r < 9:
				last := idx + rng.Int63n(70)
				var want int
				for i := idx; i <= last; i++ {
					if model[ino][i] {
						want++
					}
					dirty(ino, i)
				}
				got := c.MarkDirtyRange(testCtx(causes.PID(10+rng.Intn(3))), ino, idx, last)
				if got != want {
					t.Fatalf("seed %d op %d: MarkDirtyRange(%d, %d, %d) = %d overwrites, model says %d", seed, op, ino, idx, last, got, want)
				}
			case r < 11:
				c.InsertClean(ino, idx)
			case r < 13:
				c.InsertCleanRange(ino, idx, idx+rng.Int63n(70))
			case r < 14:
				c.Lookup(ino, idx)
			case r < 15:
				last := idx + rng.Int63n(140)
				hit := c.Peek(ino, idx)
				want := int64(1)
				for want <= last-idx && c.Peek(ino, idx+want) == hit {
					want++
				}
				if n, got := c.LookupRun(ino, idx, last); n != want || got != hit {
					t.Fatalf("seed %d op %d: LookupRun(%d, %d, %d) = %d, %v, want %d, %v", seed, op, ino, idx, last, n, got, want, hit)
				}
			case r < 19:
				max := rng.Intn(6)
				idxs, _ := takePages(t, c, ino, max)
				var want []int64
				for i := range model[ino] {
					want = append(want, i)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if max > 0 && max < len(want) {
					want = want[:max]
				}
				if len(want) == 0 {
					want = nil
				}
				for i := 1; i < len(idxs); i++ {
					if idxs[i] <= idxs[i-1] {
						t.Fatalf("seed %d op %d: TakeDirty(%d, %d) = %v, not strictly ascending", seed, op, ino, max, idxs)
					}
				}
				if !reflect.DeepEqual(idxs, want) {
					t.Fatalf("seed %d op %d: TakeDirty(%d, %d) = %v, want %v", seed, op, ino, max, idxs, want)
				}
				for _, i := range idxs {
					delete(model[ino], i)
				}
			default:
				c.FreeFile(ino)
				delete(model, ino)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			var n int64
			for _, m := range model {
				n += int64(len(m))
			}
			if c.DirtyPagesCount() != n {
				t.Fatalf("seed %d op %d: %d dirty pages, model has %d", seed, op, c.DirtyPagesCount(), n)
			}
		}
		env.Close()
	}
}

// TestCauseTagsMatchPerPage drives a small cache (so pages get evicted)
// with a seeded mix of operations against a reference model that keeps one
// cause set per dirty page. Writers are single processes and proxies whose
// cause sets are subsets and supersets of each other. After every step
// TakeDirty's tags, the causes on the traced dirty and buffer-free events,
// TagBytes and MaxTagBytes must equal the model's, the model uniting a
// rewritten page's set with the writer's one page at a time.
func TestCauseTagsMatchPerPage(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalPages = 24
	proxySets := []causes.Set{
		causes.Of(10, 11), causes.Of(11, 12), causes.Of(10, 11, 12),
		causes.Of(13), causes.Of(12, 13, 14), causes.Of(10),
	}
	union := func(a, b causes.Set) causes.Set {
		return causes.Of(append(slices.Clone(a.PIDs()), b.PIDs()...)...)
	}
	for seed := int64(1); seed <= 4; seed++ {
		env, c := newTestCache(cfg)
		c.SetPdflushEnabled(false)
		tr := trace.New()
		var events collectSink
		tr.Attach(&events)
		tr.Enable()
		c.SetTracer(tr)
		var writers []*ioctx.Ctx
		for pid := causes.PID(10); pid <= 12; pid++ {
			writers = append(writers, testCtx(pid))
		}
		for _, cs := range proxySets {
			ctx := testCtx(2)
			ctx.BeginProxy(cs)
			writers = append(writers, ctx)
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[int64]map[int64]causes.Set{} // ino -> dirty page -> causes
		var tagBytes, maxTag int64
		var want []string // the model's dirty and buffer-free events this step
		event := func(op, label string, ino, idx int64, cs causes.Set) {
			want = append(want, fmt.Sprintf("%s %q %d %d %v", op, label, ino, idx, cs))
		}
		dirtied := func(ino int64) []int64 {
			var idxs []int64
			for i := range model[ino] {
				idxs = append(idxs, i)
			}
			slices.Sort(idxs)
			return idxs
		}
		for op := 0; op < 3000; op++ {
			ino := 1 + rng.Int63n(3)
			idx := rng.Int63n(200)
			if rng.Intn(8) == 0 {
				idx += 1000
			}
			want, events = want[:0], events[:0]
			switch r := rng.Intn(20); {
			case r < 9:
				ctx := writers[rng.Intn(len(writers))]
				last := idx
				if r >= 4 {
					last += rng.Int63n(70)
				}
				if model[ino] == nil {
					model[ino] = map[int64]causes.Set{}
				}
				for i := idx; i <= last; i++ {
					cs, label := ctx.Causes(), ""
					if old, ok := model[ino][i]; ok {
						tagBytes -= int64(old.TagBytes())
						cs, label = union(old, cs), "overwrite"
					}
					model[ino][i] = cs
					tagBytes += int64(cs.TagBytes())
					maxTag = max(maxTag, tagBytes)
					event(trace.OpDirty, label, ino, i, cs)
				}
				if last == idx {
					c.MarkDirty(ctx, ino, idx)
				} else {
					c.MarkDirtyRange(ctx, ino, idx, last)
				}
			case r < 11:
				c.InsertClean(ino, idx)
			case r < 13:
				c.InsertCleanRange(ino, idx, idx+rng.Int63n(70))
			case r < 14:
				c.LookupRun(ino, idx, idx+rng.Int63n(140))
			case r < 19:
				max := rng.Intn(6)
				wantIdxs := dirtied(ino)
				if max > 0 && max < len(wantIdxs) {
					wantIdxs = wantIdxs[:max]
				}
				idxs, tags := takePages(t, c, ino, max)
				if len(idxs) != len(wantIdxs) || len(tags) != len(idxs) {
					t.Fatalf("seed %d op %d: TakeDirty(%d, %d) = %v with %d tags, want %v", seed, op, ino, max, idxs, len(tags), wantIdxs)
				}
				for k, i := range wantIdxs {
					if idxs[k] != i || !tags[k].Equal(model[ino][i]) {
						t.Fatalf("seed %d op %d: TakeDirty(%d, %d) gave page %d tagged %v, model has page %d tagged %v",
							seed, op, ino, max, idxs[k], tags[k], i, model[ino][i])
					}
					tagBytes -= int64(model[ino][i].TagBytes())
					delete(model[ino], i)
				}
			default:
				for _, i := range dirtied(ino) {
					event(trace.OpBufferFree, "", ino, i, model[ino][i])
					tagBytes -= int64(model[ino][i].TagBytes())
				}
				delete(model, ino)
				c.FreeFile(ino)
			}
			var got []string
			for _, ev := range events {
				if ev.Op == trace.OpDirty || ev.Op == trace.OpBufferFree {
					got = append(got, fmt.Sprintf("%s %q %d %d %v", ev.Op, ev.Label, ev.Ino, ev.Page, ev.Causes))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: traced events\n%s\nmodel\n%s", seed, op, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if c.TagBytes() != tagBytes || c.MaxTagBytes() != maxTag {
				t.Fatalf("seed %d op %d: tag bytes %d (max %d), model %d (max %d)", seed, op, c.TagBytes(), c.MaxTagBytes(), tagBytes, maxTag)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		env.Close()
	}
}
