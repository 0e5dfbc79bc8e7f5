package fs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
)

type rig struct {
	env   *sim.Env
	cache *cache.Cache
	blk   *block.Layer
	fs    *FS
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigPages(t, cfg, 1<<16)
}

// newRigPages is newRig with a page cache of cachePages pages.
func newRigPages(t *testing.T, cfg Config, cachePages int64) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	blk := block.NewLayer(env, device.NewHDD(), block.NewFIFO())
	wbCtx := &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4}
	jctx := &ioctx.Ctx{PID: 3, Name: "jbd", Prio: 4}
	ccfg := cache.DefaultConfig()
	ccfg.TotalPages = cachePages
	c := cache.New(env, ccfg, wbCtx)
	f := New(env, cfg, c, blk, jctx, wbCtx)
	t.Cleanup(env.Close)
	return &rig{env: env, cache: c, blk: blk, fs: f}
}

func userCtx(pid causes.PID) *ioctx.Ctx {
	return &ioctx.Ctx{PID: pid, Name: "user", Prio: 4}
}

func TestCreateLookup(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, err := r.fs.Create(p, ctx, "/a")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if got, ok := r.fs.Lookup("/a"); !ok || got != f {
			t.Error("Lookup after Create failed")
		}
		if _, err := r.fs.Create(p, ctx, "/a"); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate Create err = %v", err)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestWriteDirtiesPagesAndJoinsTxn(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 3*BlockSize)
		if got := r.cache.FileDirtyPages(f.Ino); got != 3 {
			t.Errorf("dirty pages = %d, want 3", got)
		}
		if f.Size() != 3*BlockSize {
			t.Errorf("size = %d", f.Size())
		}
		meta, deps := r.fs.RunningTxnInfo()
		if meta == 0 {
			t.Error("write did not join txn metadata")
		}
		if deps != 3 {
			t.Errorf("txn dep dirty pages = %d, want 3", deps)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestFsyncDurability(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, BlockSize)
		r.fs.Fsync(p, ctx, f)
		if got := r.cache.FileDirtyPages(f.Ino); got != 0 {
			t.Errorf("dirty pages after fsync = %d", got)
		}
		if r.fs.Commits() == 0 {
			t.Error("fsync did not commit a transaction")
		}
	})
	r.env.Run(sim.Time(time.Hour))
	st := r.blk.Stats()
	if st.BlocksWrite < 3 {
		t.Fatalf("expected data + journal writes, got %d blocks", st.BlocksWrite)
	}
}

func TestFsyncEmptyFileCommitsCreate(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Fsync(p, ctx, f)
		if r.fs.Commits() != 1 {
			t.Errorf("commits = %d, want 1", r.fs.Commits())
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestOrderedModeEntanglement(t *testing.T) {
	// B buffers lots of data; A's fsync must flush B's data first
	// (Fig 4/5): A's latency grows with B's dirty set.
	latencyWith := func(bPages int64) time.Duration {
		r := newRig(t, Ext4Config())
		a, b := userCtx(10), userCtx(11)
		var lat time.Duration
		r.env.Go("main", func(p *sim.Proc) {
			fa, _ := r.fs.Create(p, a, "/a")
			// B overwrites a preallocated large file at random offsets, so
			// its flush is random disk I/O (the paper's checkpoint-like B).
			fb := r.fs.MkFileContiguous("/b", 100000*BlockSize)
			for i := int64(0); i < bPages; i++ {
				off := (i * 7919 % 100000) * BlockSize
				r.fs.Write(p, b, fb, off, BlockSize)
			}
			start := p.Now()
			r.fs.Write(p, a, fa, 0, BlockSize)
			r.fs.Fsync(p, a, fa)
			lat = p.Now().Sub(start)
		})
		r.env.Run(sim.Time(time.Hour))
		return lat
	}
	small := latencyWith(4)
	big := latencyWith(256)
	if big < 4*small {
		t.Fatalf("fsync entanglement missing: small=%v big=%v", small, big)
	}
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	var missReads, hitReads int64
	r.env.Go("main", func(p *sim.Proc) {
		f := r.fs.MkFileContiguous("/data", 64*BlockSize)
		r.fs.Read(p, ctx, f, 0, 16*BlockSize)
		missReads = r.blk.Stats().BlocksRead
		r.fs.Read(p, ctx, f, 0, 16*BlockSize)
		hitReads = r.blk.Stats().BlocksRead
	})
	r.env.Run(sim.Time(time.Hour))
	if missReads != 16 {
		t.Fatalf("first read did %d block reads, want 16", missReads)
	}
	if hitReads != missReads {
		t.Fatalf("second read hit disk (%d -> %d)", missReads, hitReads)
	}
}

func TestReadCoalescing(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f := r.fs.MkFileContiguous("/data", 64*BlockSize)
		r.fs.Read(p, ctx, f, 0, 64*BlockSize)
	})
	r.env.Run(sim.Time(time.Hour))
	st := r.blk.Stats()
	if st.Requests != 1 {
		t.Fatalf("64 contiguous blocks should be 1 request, got %d", st.Requests)
	}
}

func TestSparseReadNoIO(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/sparse")
		f.size = 10 * BlockSize // size without mapping
		r.fs.Read(p, ctx, f, 0, 10*BlockSize)
	})
	r.env.Run(sim.Time(time.Hour))
	if r.blk.Stats().BlocksRead != 0 {
		t.Fatal("sparse read hit disk")
	}
}

func TestDelayedAllocationContiguity(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		// Buffered sequential writes, then one flush: delayed allocation
		// should produce a single extent.
		for i := int64(0); i < 32; i++ {
			r.fs.Write(p, ctx, f, i*BlockSize, BlockSize)
		}
		r.fs.Fsync(p, ctx, f)
		if got := r.fs.FragmentationOf(f); got != 1 {
			t.Errorf("extents = %d, want 1 (delayed allocation)", got)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestInterleavedFlushFragments(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		fa, _ := r.fs.Create(p, ctx, "/a")
		fb, _ := r.fs.Create(p, ctx, "/b")
		// Alternate flushes so allocations interleave.
		for i := int64(0); i < 4; i++ {
			r.fs.Write(p, ctx, fa, i*BlockSize, BlockSize)
			r.fs.Fsync(p, ctx, fa)
			r.fs.Write(p, ctx, fb, i*BlockSize, BlockSize)
			r.fs.Fsync(p, ctx, fb)
		}
		if got := r.fs.FragmentationOf(fa); got < 2 {
			t.Errorf("interleaved file has %d extents, want fragmentation", got)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestJournalProxyTaggingExt4(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	var journalCauses []causes.Set
	r.blk.OnAdd(func(req *block.Request) {
		if req.Journal {
			journalCauses = append(journalCauses, req.Causes)
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, BlockSize)
		r.fs.Fsync(p, ctx, f)
	})
	r.env.Run(sim.Time(time.Hour))
	if len(journalCauses) == 0 {
		t.Fatal("no journal writes observed")
	}
	for _, cs := range journalCauses {
		if !cs.Contains(10) {
			t.Fatalf("ext4 journal write tagged %v, want cause 10", cs)
		}
	}
}

func TestJournalNotTaggedXFS(t *testing.T) {
	r := newRig(t, XFSConfig())
	ctx := userCtx(10)
	var journalCauses []causes.Set
	r.blk.OnAdd(func(req *block.Request) {
		if req.Journal {
			journalCauses = append(journalCauses, req.Causes)
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, BlockSize)
		r.fs.Fsync(p, ctx, f)
	})
	r.env.Run(sim.Time(time.Hour))
	if len(journalCauses) == 0 {
		t.Fatal("no journal writes observed")
	}
	for _, cs := range journalCauses {
		if cs.Contains(10) {
			t.Fatalf("xfs partial integration should not map journal to cause 10, got %v", cs)
		}
	}
}

func TestWritebackProxiesCauses(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	var dataCauses []causes.Set
	r.blk.OnAdd(func(req *block.Request) {
		if !req.Journal && req.Op == device.Write {
			dataCauses = append(dataCauses, req.Causes)
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 4*BlockSize)
	})
	// Let pdflush do the writeback (periodic).
	r.env.Run(sim.Time(30 * time.Second))
	if len(dataCauses) == 0 {
		t.Fatal("writeback never flushed")
	}
	for _, cs := range dataCauses {
		if !cs.Contains(10) {
			t.Fatalf("writeback data tagged %v, want cause 10", cs)
		}
	}
}

// TestWritebackPrunesInflight writes a file that only pdflush flushes, one
// run at a time, and checks that its list of data writes in flight holds
// none that have completed once none is in flight, and is empty at the end.
func TestWritebackPrunesInflight(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	var ino int64
	longest := 0
	r.env.Go("writer", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		ino = f.Ino
		for i := int64(0); i < 100; i++ {
			r.fs.Write(p, ctx, f, 2*i*BlockSize, BlockSize) // one run each
			p.Sleep(time.Second)
		}
	})
	r.env.Go("probe", func(p *sim.Proc) {
		for p.Now() < sim.Time(2*time.Minute) {
			p.Sleep(10 * time.Millisecond)
			dones := r.fs.inflightDones[ino]
			inflight := 0
			for _, d := range dones {
				if !d.Done() {
					inflight++
				}
			}
			if inflight == 0 && len(dones) > 0 {
				t.Errorf("at %v: %d completed writes listed, none in flight", p.Now(), len(dones))
				return
			}
			longest = max(longest, len(dones))
		}
	})
	r.env.Run(sim.Time(3 * time.Minute))
	if r.cache.FileDirtyPages(ino) != 0 || longest == 0 {
		t.Fatalf("%d pages left dirty, at most %d writes listed: pdflush did not flush the file", r.cache.FileDirtyPages(ino), longest)
	}
	if n := len(r.fs.inflightDones[ino]); n != 0 {
		t.Fatalf("%d completed writes still listed after every flush finished", n)
	}
	t.Logf("at most %d writes listed", longest)
}

func TestUnlinkFreesDirtyPages(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 8*BlockSize)
		if err := r.fs.Unlink(p, ctx, "/a"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if r.cache.DirtyPagesCount() != 0 {
			t.Error("dirty pages survive unlink")
		}
		if err := r.fs.Unlink(p, ctx, "/a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("second unlink err = %v", err)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestMkdirMetadataOnly(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		if err := r.fs.Mkdir(p, ctx, "/dir"); err != nil {
			t.Errorf("Mkdir: %v", err)
		}
		meta, _ := r.fs.RunningTxnInfo()
		if meta == 0 {
			t.Error("mkdir did not add txn metadata")
		}
		if err := r.fs.Mkdir(p, ctx, "/dir"); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate mkdir err = %v", err)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestSyncAll(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		fa, _ := r.fs.Create(p, ctx, "/a")
		fb, _ := r.fs.Create(p, ctx, "/b")
		r.fs.Write(p, ctx, fa, 0, BlockSize)
		r.fs.Write(p, ctx, fb, 0, BlockSize)
		r.fs.SyncAll(p, ctx)
		if r.cache.DirtyPagesCount() != 0 {
			t.Error("SyncAll left dirty pages")
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

func TestPeriodicCommit(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, BlockSize)
	})
	r.env.Run(sim.Time(12 * time.Second))
	if r.fs.Commits() == 0 {
		t.Fatal("periodic commit never ran")
	}
}

func TestSharedMetadataBatching(t *testing.T) {
	// Two processes write before either syncs; one fsync commits a txn
	// containing both processes' metadata — the batch carries both causes.
	r := newRig(t, Ext4Config())
	a, b := userCtx(10), userCtx(11)
	var journalCauses causes.Set
	r.blk.OnAdd(func(req *block.Request) {
		if req.Journal {
			journalCauses = journalCauses.Union(req.Causes)
		}
	})
	r.env.Go("main", func(p *sim.Proc) {
		fa, _ := r.fs.Create(p, a, "/a")
		fb, _ := r.fs.Create(p, b, "/b")
		r.fs.Write(p, a, fa, 0, BlockSize)
		r.fs.Write(p, b, fb, 0, BlockSize)
		r.fs.Fsync(p, a, fa)
	})
	r.env.Run(sim.Time(time.Hour))
	if !journalCauses.Contains(10) || !journalCauses.Contains(11) {
		t.Fatalf("journal causes = %v, want both 10 and 11", journalCauses)
	}
}

func TestMkFileContiguousLayout(t *testing.T) {
	r := newRig(t, Ext4Config())
	f := r.fs.MkFileContiguous("/big", 1000*BlockSize)
	if r.fs.FragmentationOf(f) != 1 {
		t.Fatal("MkFileContiguous not contiguous")
	}
	if f.Size() != 1000*BlockSize {
		t.Fatalf("size = %d", f.Size())
	}
	if got, ok := r.fs.FileByIno(f.Ino); !ok || got != f {
		t.Fatal("FileByIno lookup failed")
	}
}

func TestOverwriteNoNewAllocation(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("main", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/a")
		r.fs.Write(p, ctx, f, 0, 8*BlockSize)
		r.fs.Fsync(p, ctx, f)
		ext1 := r.fs.FragmentationOf(f)
		r.fs.Write(p, ctx, f, 0, 8*BlockSize) // overwrite
		r.fs.Fsync(p, ctx, f)
		if got := r.fs.FragmentationOf(f); got != ext1 {
			t.Errorf("overwrite changed extents %d -> %d", ext1, got)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}

// reqRec is the part of a block.Request the run splitter decides.
type reqRec struct {
	LBA    int64
	Blocks int
	Pages  device.PageRange
	Causes string
	Sync   bool
	TxnID  int64
}

// TestFlushRunSplitting pins the exact request stream the file system cuts
// from page indices: mapped runs capped at MaxRunBlocks and split at disk
// discontinuities, unmapped holes allocated at flush time (and zero-filled
// on read), and the ordered-mode flush of another file tagged with the
// committing transaction.
func TestFlushRunSplitting(t *testing.T) {
	cfg := Ext4Config()
	cfg.MaxRunBlocks = 4
	record := func(r *rig) *[]reqRec {
		var got []reqRec
		r.blk.OnAdd(func(req *block.Request) {
			got = append(got, reqRec{
				LBA: req.LBA, Blocks: req.Blocks, Pages: req.Pages,
				Causes: req.Causes.String(), Sync: req.Sync, TxnID: req.TxnID,
			})
		})
		return &got
	}
	check := func(t *testing.T, got, want []reqRec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d requests, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
		for i := range want {
			if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
				t.Errorf("request %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}

	t.Run("flush", func(t *testing.T) {
		r := newRig(t, cfg)
		got := record(r)
		a, b, c := userCtx(10), userCtx(11), userCtx(12)
		r.env.Go("main", func(p *sim.Proc) {
			fa, _ := r.fs.Create(p, a, "/a")
			fb, _ := r.fs.Create(p, c, "/b")
			// Blocks 0-5 are one disk run longer than MaxRunBlocks, 6-7 a
			// second run elsewhere, 8-9 an unmapped hole, 10-11 a third run.
			fa.extents = []extent{
				{fileBlk: 0, diskBlk: 5000, n: 6},
				{fileBlk: 6, diskBlk: 7000, n: 2},
				{fileBlk: 10, diskBlk: 9000, n: 2},
			}
			r.fs.Write(p, a, fa, 0, 6*BlockSize)
			r.fs.Write(p, b, fa, 4*BlockSize, 8*BlockSize)
			r.fs.Write(p, c, fb, 0, 2*BlockSize)
			r.fs.Fsync(p, a, fa)
		})
		r.env.Run(sim.Time(time.Hour))
		check(t, *got, []reqRec{
			{LBA: 5000, Blocks: 4, Pages: device.PageRange{First: 0, N: 4}, Causes: "{10}", Sync: true},
			{LBA: 5004, Blocks: 2, Pages: device.PageRange{First: 4, N: 2}, Causes: "{10,11}", Sync: true},
			{LBA: 7000, Blocks: 2, Pages: device.PageRange{First: 6, N: 2}, Causes: "{11}", Sync: true},
			{LBA: 1024, Blocks: 2, Pages: device.PageRange{First: 8, N: 2}, Causes: "{11}", Sync: true},
			{LBA: 9000, Blocks: 2, Pages: device.PageRange{First: 10, N: 2}, Causes: "{11}", Sync: true},
			{LBA: 1026, Blocks: 2, Pages: device.PageRange{First: 0, N: 2}, Causes: "{12}", Sync: true, TxnID: 1},
			{LBA: r.fs.journalStart, Blocks: 9, Causes: "{10,11,12}", Sync: true, TxnID: 1},
			{LBA: r.fs.journalStart + 9, Blocks: 1, Causes: "{10,11,12}", Sync: true, TxnID: 1},
			// The periodic commit of the allocation the ordered flush made
			// on /b's behalf.
			{LBA: r.fs.journalStart + 10, Blocks: 2, Causes: "{12}", Sync: true, TxnID: 2},
			{LBA: r.fs.journalStart + 12, Blocks: 1, Causes: "{12}", Sync: true, TxnID: 2},
		})
	})

	// Two extents that are contiguous on disk are one run: a request spans
	// both, on the write path and on the read path.
	t.Run("contiguous-extents", func(t *testing.T) {
		r := newRig(t, cfg)
		got := record(r)
		ctx := userCtx(10)
		r.env.Go("main", func(p *sim.Proc) {
			fw, _ := r.fs.Create(p, ctx, "/w")
			fw.extents = []extent{
				{fileBlk: 0, diskBlk: 5000, n: 3},
				{fileBlk: 3, diskBlk: 5003, n: 3},
			}
			r.fs.Write(p, ctx, fw, 0, 6*BlockSize)
			r.fs.Fsync(p, ctx, fw)
			fr := r.fs.MkFileContiguous("/r", 6*BlockSize)
			fr.extents = []extent{
				{fileBlk: 0, diskBlk: 6000, n: 3},
				{fileBlk: 3, diskBlk: 6003, n: 3},
			}
			r.fs.Read(p, ctx, fr, 0, 6*BlockSize)
		})
		r.env.Run(sim.Time(time.Hour))
		check(t, *got, []reqRec{
			{LBA: 5000, Blocks: 4, Pages: device.PageRange{First: 0, N: 4}, Causes: "{10}", Sync: true},
			{LBA: 5004, Blocks: 2, Pages: device.PageRange{First: 4, N: 2}, Causes: "{10}", Sync: true},
			{LBA: r.fs.journalStart, Blocks: 4, Causes: "{10}", Sync: true, TxnID: 1},
			{LBA: r.fs.journalStart + 4, Blocks: 1, Causes: "{10}", Sync: true, TxnID: 1},
			{LBA: 6000, Blocks: 4, Causes: "{10}", Sync: true},
			{LBA: 6004, Blocks: 2, Causes: "{10}", Sync: true},
		})
	})

	t.Run("sparse-read", func(t *testing.T) {
		r := newRig(t, cfg)
		got := record(r)
		ctx := userCtx(10)
		r.env.Go("main", func(p *sim.Proc) {
			f, _ := r.fs.Create(p, ctx, "/sparse")
			// Blocks 0-5 are one disk run, 6-7 a hole, 8-9 and 10 two runs
			// that are discontiguous on disk.
			f.extents = []extent{
				{fileBlk: 0, diskBlk: 5000, n: 6},
				{fileBlk: 8, diskBlk: 6000, n: 2},
				{fileBlk: 10, diskBlk: 6100, n: 1},
			}
			f.size = 11 * BlockSize
			r.fs.Read(p, ctx, f, 0, 11*BlockSize)
		})
		r.env.Run(sim.Time(time.Hour))
		check(t, *got, []reqRec{
			{LBA: 5000, Blocks: 4, Causes: "{10}", Sync: true},
			{LBA: 5004, Blocks: 2, Causes: "{10}", Sync: true},
			{LBA: 6000, Blocks: 2, Causes: "{10}", Sync: true},
			{LBA: 6100, Blocks: 1, Causes: "{10}", Sync: true},
			// The periodic commit of the create.
			{LBA: r.fs.journalStart, Blocks: 3, Causes: "{10}", Sync: true, TxnID: 1},
			{LBA: r.fs.journalStart + 3, Blocks: 1, Causes: "{10}", Sync: true, TxnID: 1},
		})
		for idx := int64(6); idx < 8; idx++ {
			if !r.cache.Lookup(1, idx) {
				t.Errorf("hole page %d not zero-filled into the cache", idx)
			}
		}
	})

	t.Run("read-split-by-hit", func(t *testing.T) {
		r := newRig(t, cfg)
		got := record(r)
		ctx := userCtx(10)
		var f *File
		r.env.Go("main", func(p *sim.Proc) {
			f = r.fs.MkFileContiguous("/data", 8*BlockSize)
			r.cache.InsertClean(f.Ino, 2)
			r.fs.Read(p, ctx, f, 0, 8*BlockSize)
		})
		r.env.Run(sim.Time(time.Hour))
		check(t, *got, []reqRec{
			{LBA: 1024, Blocks: 2, Causes: "{10}", Sync: true},
			{LBA: 1027, Blocks: 4, Causes: "{10}", Sync: true},
			{LBA: 1031, Blocks: 1, Causes: "{10}", Sync: true},
		})
		// Both miss batches land in the cache, the first one too.
		for idx := int64(0); idx < 8; idx++ {
			if !r.cache.Lookup(f.Ino, idx) {
				t.Errorf("page %d not cached after the read", idx)
			}
		}
	})

	// A read over miss | hit | hole | hit | hit, in a cache one page from
	// full, pins how lookups interleave with miss submission: the first hit
	// after a miss run is promoted before the misses are submitted, and the
	// hole's zero-fill inserts (and evicts) before the pages after it are
	// looked up. The LRU order before the read is 4, 5, four pages of
	// another file, 1, so the hole's second page evicts page 5, which the
	// read then misses.
	t.Run("read-interleaving", func(t *testing.T) {
		r := newRigPages(t, cfg, 8)
		got := record(r)
		ctx := userCtx(10)
		var f *File
		const other = 99
		r.env.Go("main", func(p *sim.Proc) {
			f = r.fs.MkFileContiguous("/data", 6*BlockSize)
			f.extents = []extent{
				{fileBlk: 0, diskBlk: 5000, n: 2},
				{fileBlk: 4, diskBlk: 6000, n: 2},
			}
			r.cache.InsertClean(f.Ino, 4)
			r.cache.InsertClean(f.Ino, 5)
			for idx := int64(0); idx < 4; idx++ {
				r.cache.InsertClean(other, idx)
			}
			r.cache.InsertClean(f.Ino, 1)
			r.fs.Read(p, ctx, f, 0, 6*BlockSize)
		})
		r.env.Run(sim.Time(time.Hour))
		check(t, *got, []reqRec{
			{LBA: 5000, Blocks: 1, Causes: "{10}", Sync: true},
			{LBA: 6001, Blocks: 1, Causes: "{10}", Sync: true},
		})
		for idx := int64(0); idx < 6; idx++ {
			if !r.cache.Peek(f.Ino, idx) {
				t.Errorf("page %d not cached after the read", idx)
			}
		}
		// The two read completions evicted the other file's two least
		// recently used pages.
		for idx, want := range []bool{false, false, true, true} {
			if got := r.cache.Peek(other, int64(idx)); got != want {
				t.Errorf("page %d of the other file resident = %v, want %v", idx, got, want)
			}
		}
	})
}
