package cache

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/sim"
)

// These tests pin the orderings the schedule goldens depend on: which file
// writeback picks, where a file sits in DirtyFiles, and which pages
// TakeDirty hands out.

func TestWritebackPicksLargestFileTieToFirstDirtied(t *testing.T) {
	env, c := newTestCache(smallConfig())
	defer env.Close()
	var order []int64
	c.SetWriteback(func(ino int64, max int, done func(n int)) {
		idxs, _ := c.TakeDirty(ino, max)
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
	c.TakeDirty(1, 0)
	check(2, 3)
	c.MarkDirty(ctx, 1, 4)
	check(1, 2, 3) // cleaned, then re-dirtied: back in its old place
	c.FreeFile(2)
	check(1, 3)
	c.MarkDirty(ctx, 2, 0)
	check(1, 2, 3) // freed, then re-dirtied: back in its old place
	c.TakeDirty(1, 0)
	c.TakeDirty(2, 0)
	c.TakeDirty(3, 0)
	c.MarkDirty(ctx, 3, 0)
	c.MarkDirty(ctx, 1, 0)
	check(1, 3) // no daemon pass saw the cache clean: the order stands
	c.TakeDirty(1, 0)
	c.TakeDirty(3, 0)
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
		idxs, tags := c.TakeDirty(1, max)
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
			case r < 13:
				c.InsertClean(ino, idx)
			case r < 15:
				c.Lookup(ino, idx)
			case r < 19:
				max := rng.Intn(6)
				idxs, _ := c.TakeDirty(ino, max)
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
