package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refLRU is a page-by-page model of the cache's residency: each resident
// page with its dirty bit, and the clean pages from least to most recently
// used. A page is named {ino, idx}.
type refLRU struct {
	total    int
	resident map[[2]int64]bool
	ring     [][2]int64
}

func (r *refLRU) unring(pg [2]int64) {
	if i := slices.Index(r.ring, pg); i >= 0 {
		r.ring = slices.Delete(r.ring, i, i+1)
	}
}

func (r *refLRU) touch(pg [2]int64) {
	if dirty, ok := r.resident[pg]; ok && !dirty {
		r.unring(pg)
		r.ring = append(r.ring, pg)
	}
}

func (r *refLRU) evictIfFull() {
	for len(r.resident) >= r.total && len(r.ring) > 0 {
		delete(r.resident, r.ring[0])
		r.ring = r.ring[1:]
	}
}

func (r *refLRU) insertClean(pg [2]int64) {
	if _, ok := r.resident[pg]; ok {
		r.touch(pg)
		return
	}
	r.evictIfFull()
	r.resident[pg] = false
	r.ring = append(r.ring, pg)
}

func (r *refLRU) lookupRun(ino, first, last int64) (n int64, hit bool) {
	_, hit = r.resident[[2]int64{ino, first}]
	for ; first+n <= last; n++ {
		if _, ok := r.resident[[2]int64{ino, first + n}]; ok != hit {
			break
		}
	}
	if hit {
		for i := first; i < first+n; i++ {
			r.touch([2]int64{ino, i})
		}
	}
	return n, hit
}

// markDirty dirties a page and reports whether it was dirty already.
func (r *refLRU) markDirty(pg [2]int64) bool {
	dirty, ok := r.resident[pg]
	switch {
	case !ok:
		r.evictIfFull()
	case !dirty:
		r.unring(pg)
	}
	r.resident[pg] = true
	return dirty
}

func (r *refLRU) takeDirty(ino int64, max int) []int64 {
	var idxs []int64
	for pg, dirty := range r.resident {
		if dirty && pg[0] == ino {
			idxs = append(idxs, pg[1])
		}
	}
	slices.Sort(idxs)
	if max > 0 && max < len(idxs) {
		idxs = idxs[:max]
	}
	for _, i := range idxs {
		r.resident[[2]int64{ino, i}] = false
		r.ring = append(r.ring, [2]int64{ino, i})
	}
	return idxs
}

func (r *refLRU) freeFile(ino int64) {
	for pg := range r.resident {
		if pg[0] == ino {
			delete(r.resident, pg)
		}
	}
	r.ring = slices.DeleteFunc(r.ring, func(pg [2]int64) bool { return pg[0] == ino })
}

func (r *refLRU) dirtyCount() int64 {
	var n int64
	for _, dirty := range r.resident {
		if dirty {
			n++
		}
	}
	return n
}

// TestRingMatchesReferenceLRU drives the cache and a page-by-page LRU model
// with the same seeded operations: clean inserts as ranges and page by page
// in reverse index order, run lookups, range dirtying, writeback takes of
// random size and file frees, over ranges that cross chunk boundaries in
// caches small enough to evict. After every operation the LRU ring, page by
// page, and the dirty count must equal the model's, as must each lookup's
// run and each take's pages, and the cache must pass CheckConsistency.
func TestRingMatchesReferenceLRU(t *testing.T) {
	for _, size := range []int64{24, 100, 300} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := smallConfig()
			cfg.TotalPages = size
			env, c := newTestCache(cfg)
			c.SetPdflushEnabled(false)
			ref := &refLRU{total: int(size), resident: map[[2]int64]bool{}}
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 3000; op++ {
				ino, first := 1+rng.Int63n(3), rng.Int63n(320)
				last := first + rng.Int63n(70)
				switch r := rng.Intn(16); {
				case r < 4:
					c.InsertCleanRange(ino, first, last)
					for i := first; i <= last; i++ {
						ref.insertClean([2]int64{ino, i})
					}
				case r < 6:
					for i := last; i >= first; i-- {
						c.InsertClean(ino, i)
						ref.insertClean([2]int64{ino, i})
					}
				case r < 9:
					n, hit := c.LookupRun(ino, first, last)
					if wn, whit := ref.lookupRun(ino, first, last); n != wn || hit != whit {
						t.Fatalf("size %d seed %d op %d: LookupRun(%d, %d, %d) = %d, %v, model says %d, %v", size, seed, op, ino, first, last, n, hit, wn, whit)
					}
				case r < 12:
					var want int
					for i := first; i <= last; i++ {
						if ref.markDirty([2]int64{ino, i}) {
							want++
						}
					}
					if got := c.MarkDirtyRange(testCtx(10), ino, first, last); got != want {
						t.Fatalf("size %d seed %d op %d: MarkDirtyRange(%d, %d, %d) = %d overwrites, model says %d", size, seed, op, ino, first, last, got, want)
					}
				case r < 15:
					max := rng.Intn(40)
					idxs, _ := takePages(t, c, ino, max)
					if want := ref.takeDirty(ino, max); !slices.Equal(idxs, want) {
						t.Fatalf("size %d seed %d op %d: TakeDirty(%d, %d) = %v, model says %v", size, seed, op, ino, max, idxs, want)
					}
				default:
					c.FreeFile(ino)
					ref.freeFile(ino)
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatalf("size %d seed %d op %d: %v", size, seed, op, err)
				}
				if got := ringOrder(c); !slices.Equal(got, ref.ring) {
					t.Fatalf("size %d seed %d op %d: LRU ring\n%v\nmodel\n%v", size, seed, op, got, ref.ring)
				}
				if got, want := c.DirtyPagesCount(), ref.dirtyCount(); got != want {
					t.Fatalf("size %d seed %d op %d: %d dirty pages, model has %d", size, seed, op, got, want)
				}
			}
			env.Close()
		}
	}
}
