package fs

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/sim"
)

func TestCOWRemapOnOverwrite(t *testing.T) {
	r := newRig(t, COWConfig())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 8*BlockSize)
		r.fs.Fsync(p, ctx, f)
		first, ok := r.fs.lookupBlock(f, 0)
		if !ok {
			t.Error("block unmapped after flush")
			return
		}
		// Overwrite in place: a COW file system must move the data.
		r.fs.Write(p, ctx, f, 0, 8*BlockSize)
		r.fs.Fsync(p, ctx, f)
		second, _ := r.fs.lookupBlock(f, 0)
		if second == first {
			t.Error("overwrite reused old location; not copy-on-write")
		}
		if r.fs.GarbageBlocks() < 8 {
			t.Errorf("garbage = %d, want >= 8", r.fs.GarbageBlocks())
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestCOWExt4NoRemap(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 4*BlockSize)
		r.fs.Fsync(p, ctx, f)
		first, _ := r.fs.lookupBlock(f, 0)
		r.fs.Write(p, ctx, f, 0, 4*BlockSize)
		r.fs.Fsync(p, ctx, f)
		second, _ := r.fs.lookupBlock(f, 0)
		if first != second {
			t.Error("ext4 overwrote out of place")
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestCOWGCRunsAndIsProxied(t *testing.T) {
	cfg := COWConfig()
	cfg.GCThresholdBlocks = 64 // tiny threshold so GC triggers fast
	r := newRig(t, cfg)
	ctx := userCtx(10)
	var gcCauses causes.Set
	var gcReqs int
	r.blk.OnAdd(func(req *block.Request) {
		if req.Submitter == 4 { // gc task pid
			gcCauses = gcCauses.Union(req.Causes)
			gcReqs++
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 64*BlockSize)
		r.fs.Fsync(p, ctx, f)
		// Random churn: overwrites fragment the file and create garbage.
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			idx := rng.Int63n(64)
			r.fs.Write(p, ctx, f, idx*BlockSize, BlockSize)
			r.fs.Fsync(p, ctx, f)
		}
	})
	r.env.Run(sim.Time(5 * time.Minute))
	if gcReqs == 0 {
		t.Fatal("GC never ran")
	}
	if r.fs.GCRelocatedBlocks() == 0 {
		t.Fatal("GC relocated nothing")
	}
	if !gcCauses.Contains(10) {
		t.Fatalf("GC I/O tagged %v; want proxied to writer 10", gcCauses)
	}
}

func TestCOWMappingConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, COWConfig())
		ctx := userCtx(10)
		ok := true
		r.env.Go("driver", func(p *sim.Proc) {
			file, err := r.fs.Create(p, ctx, "/f")
			if err != nil {
				ok = false
				return
			}
			written := map[int64]bool{}
			for round := 0; round < 6; round++ {
				for i := 0; i < 12; i++ {
					idx := rng.Int63n(128)
					r.fs.Write(p, ctx, file, idx*BlockSize, BlockSize)
					written[idx] = true
				}
				r.fs.Fsync(p, ctx, file)
				// All written blocks mapped; no two file blocks share a
				// disk block; extents sorted and non-overlapping.
				seen := map[int64]int64{}
				for idx := range written {
					disk, mapped := r.fs.lookupBlock(file, idx)
					if !mapped {
						ok = false
						return
					}
					if other, dup := seen[disk]; dup && other != idx {
						ok = false
						return
					}
					seen[disk] = idx
				}
				prevEnd := int64(-1)
				for _, e := range file.extents {
					if e.fileBlk < prevEnd {
						ok = false // overlap
						return
					}
					prevEnd = e.fileBlk + e.n
				}
			}
		})
		r.env.Run(sim.Time(time.Hour))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapRangeSplitsExtents(t *testing.T) {
	r := newRig(t, COWConfig())
	file := &File{Ino: 99}
	// One big extent [0,100) -> disk 1000.
	file.extents = []extent{{fileBlk: 0, diskBlk: 1000, n: 100}}
	garbage := r.fs.remapRange(file, 40, 10, 5000)
	if garbage != 10 {
		t.Fatalf("garbage = %d, want 10", garbage)
	}
	// Expect three extents: [0,40)->1000, [40,50)->5000, [50,100)->1050.
	if len(file.extents) != 3 {
		t.Fatalf("extents = %d, want 3", len(file.extents))
	}
	checks := []struct{ fileBlk, disk, n int64 }{
		{0, 1000, 40}, {40, 5000, 10}, {50, 1050, 50},
	}
	for i, c := range checks {
		e := file.extents[i]
		if e.fileBlk != c.fileBlk || e.diskBlk != c.disk || e.n != c.n {
			t.Fatalf("extent %d = %+v, want %+v", i, e, c)
		}
	}
	// Lookups through the split.
	for _, probe := range []struct{ idx, want int64 }{{0, 1000}, {39, 1039}, {40, 5000}, {49, 5009}, {50, 1050}, {99, 1099}} {
		got, ok := r.fs.lookupBlock(file, probe.idx)
		if !ok || got != probe.want {
			t.Fatalf("lookup(%d) = %d,%v want %d", probe.idx, got, ok, probe.want)
		}
	}
}

func TestCOWFragmentsUnderRandomChurn(t *testing.T) {
	r := newRig(t, COWConfig())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 64*BlockSize)
		r.fs.Fsync(p, ctx, f)
		base := r.fs.FragmentationOf(f)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20; i++ {
			idx := rng.Int63n(64)
			r.fs.Write(p, ctx, f, idx*BlockSize, BlockSize)
			r.fs.Fsync(p, ctx, f)
		}
		if got := r.fs.FragmentationOf(f); got <= base {
			t.Errorf("COW churn should fragment: %d -> %d extents", base, got)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

// TestMostFragmentedTieBreak pins the cleaner's victim when files tie on
// extent count: the lowest inode, whatever order the inode map ranges in.
func TestMostFragmentedTieBreak(t *testing.T) {
	r := newRig(t, COWConfig())
	ctx := userCtx(10)
	var a, b *File
	r.env.Go("main", func(p *sim.Proc) {
		a, _ = r.fs.Create(p, ctx, "/a")
		b, _ = r.fs.Create(p, ctx, "/b")
	})
	r.env.Run(0)
	two := []extent{{fileBlk: 0, diskBlk: 5000, n: 1}, {fileBlk: 1, diskBlk: 6000, n: 1}}
	a.extents = append([]extent(nil), two...)
	b.extents = append([]extent(nil), two...)
	for i := 0; i < 50; i++ {
		if got := r.fs.mostFragmented(); got != a {
			t.Fatalf("call %d: victim = %+v, want the lower inode %d", i, got, a.Ino)
		}
	}
}
