package vfs

import (
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/cpusim"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/perf"
	"splitio/internal/sim"
)

type rig struct {
	env *sim.Env
	v   *VFS
	fs  *fs.FS
	blk *block.Layer
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	blk := block.NewLayer(env, device.NewHDD(), block.NewFIFO())
	wbCtx := &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4}
	jctx := &ioctx.Ctx{PID: 3, Name: "jbd", Prio: 4}
	ccfg := cache.DefaultConfig()
	ccfg.TotalPages = 1 << 16
	c := cache.New(env, ccfg, wbCtx)
	f := fs.New(env, fs.Ext4Config(), c, blk, jctx, wbCtx)
	v := New(env, f, cpusim.New(8))
	t.Cleanup(env.Close)
	return &rig{env: env, v: v, fs: f, blk: blk}
}

func TestProcessRegistry(t *testing.T) {
	r := newRig(t)
	a := r.v.NewProcess("a", 0)
	b := r.v.NewProcess("b", 7)
	if a.PID() == b.PID() {
		t.Fatal("duplicate pids")
	}
	if got, ok := r.v.Process(a.PID()); !ok || got != a {
		t.Fatal("Process lookup failed")
	}
	ps := r.v.Processes()
	if len(ps) != 2 || ps[0] != a || ps[1] != b {
		t.Fatalf("Processes() = %v", ps)
	}
}

func TestWriteCounters(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("w", 4)
	r.env.Go("w", func(p *sim.Proc) {
		f, _ := r.v.Create(p, pr, "/f")
		r.v.Write(p, pr, f, 0, 8192)
	})
	r.env.Run(sim.Time(time.Minute))
	if pr.BytesWritten.Total() != 8192 {
		t.Fatalf("BytesWritten = %d", pr.BytesWritten.Total())
	}
}

func TestReadHitDetection(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("r", 4)
	var hits []bool
	r.v.SetHooks(Hooks{
		ReadExit: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64, hit bool) {
			hits = append(hits, hit)
		},
	})
	r.env.Go("r", func(p *sim.Proc) {
		f := r.fs.MkFileContiguous("/data", 1<<20)
		r.v.Read(p, pr, f, 0, 4096)
		r.v.Read(p, pr, f, 0, 4096)
	})
	r.env.Run(sim.Time(time.Minute))
	if len(hits) != 2 || hits[0] || !hits[1] {
		t.Fatalf("hits = %v, want [false true]", hits)
	}
	if pr.BytesRead.Total() != 8192 {
		t.Fatalf("BytesRead = %d", pr.BytesRead.Total())
	}
}

func TestHookOrderingAndDelay(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("w", 4)
	var entryAt, exitAt sim.Time
	r.v.SetHooks(Hooks{
		WriteEntry: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
			entryAt = p.Now()
			p.Sleep(10 * time.Millisecond) // scheduler delays the call
		},
		WriteExit: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
			exitAt = p.Now()
		},
	})
	r.env.Go("w", func(p *sim.Proc) {
		f, _ := r.v.Create(p, pr, "/f")
		r.v.Write(p, pr, f, 0, 4096)
	})
	r.env.Run(sim.Time(time.Minute))
	if exitAt.Sub(entryAt) < 10*time.Millisecond {
		t.Fatalf("entry-hook sleep did not delay call: %v -> %v", entryAt, exitAt)
	}
}

func TestFsyncLatencyRecorded(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("w", 4)
	var hookTook time.Duration
	r.v.SetHooks(Hooks{
		FsyncExit: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, took time.Duration) {
			hookTook = took
		},
	})
	r.env.Go("w", func(p *sim.Proc) {
		f, _ := r.v.Create(p, pr, "/f")
		r.v.Write(p, pr, f, 0, 4096)
		r.v.Fsync(p, pr, f)
	})
	r.env.Run(sim.Time(time.Minute))
	if pr.Fsyncs.Count() != 1 {
		t.Fatalf("fsync samples = %d", pr.Fsyncs.Count())
	}
	if hookTook <= 0 {
		t.Fatal("FsyncExit took not reported")
	}
}

func TestCreatAndMkdirHooks(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("m", 4)
	var events []string
	r.v.SetHooks(Hooks{
		CreatEntry: func(p *sim.Proc, c *ioctx.Ctx, path string) { events = append(events, "creat+"+path) },
		CreatExit:  func(p *sim.Proc, c *ioctx.Ctx, path string) { events = append(events, "creat-"+path) },
		MkdirEntry: func(p *sim.Proc, c *ioctx.Ctx, path string) { events = append(events, "mkdir+"+path) },
		MkdirExit:  func(p *sim.Proc, c *ioctx.Ctx, path string) { events = append(events, "mkdir-"+path) },
	})
	r.env.Go("m", func(p *sim.Proc) {
		if _, err := r.v.Create(p, pr, "/f"); err != nil {
			t.Errorf("Create: %v", err)
		}
		if err := r.v.Mkdir(p, pr, "/d"); err != nil {
			t.Errorf("Mkdir: %v", err)
		}
	})
	r.env.Run(sim.Time(time.Minute))
	want := []string{"creat+/f", "creat-/f", "mkdir+/d", "mkdir-/d"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestOpenAndUnlink(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("u", 4)
	r.env.Go("u", func(p *sim.Proc) {
		if _, err := r.v.Open("/missing"); err == nil {
			t.Error("Open of missing file succeeded")
		}
		f, _ := r.v.Create(p, pr, "/f")
		got, err := r.v.Open("/f")
		if err != nil || got != f {
			t.Error("Open after Create failed")
		}
		if err := r.v.Unlink(p, pr, "/f"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if _, err := r.v.Open("/f"); err == nil {
			t.Error("Open after Unlink succeeded")
		}
	})
	r.env.Run(sim.Time(time.Minute))
}

func TestZeroLengthIONoop(t *testing.T) {
	r := newRig(t)
	pr := r.v.NewProcess("z", 4)
	r.env.Go("z", func(p *sim.Proc) {
		f, _ := r.v.Create(p, pr, "/f")
		r.v.Write(p, pr, f, 0, 0)
		r.v.Read(p, pr, f, 0, 0)
	})
	r.env.Run(sim.Time(time.Minute))
	if pr.BytesWritten.Total() != 0 || pr.BytesRead.Total() != 0 {
		t.Fatal("zero-length I/O counted")
	}
}

// TestProbesCountUntracedSyscalls pins the layer probes with the tracer off:
// every syscall adds exactly one vfs call, and an fsync that has nothing to
// allocate (its file is already mapped) still counts its fs flush work.
func TestProbesCountUntracedSyscalls(t *testing.T) {
	perf.ResetForTest()
	perf.Enable()
	defer perf.ResetForTest()
	r := newRig(t)
	pr := r.v.NewProcess("p", 4)
	mapped := r.fs.MkFileContiguous("/mapped", 8*cache.PageSize)
	calls := func(b perf.Bucket) int64 { return perf.TakeSnapshot().Buckets[b].Calls }
	r.env.Go("p", func(p *sim.Proc) {
		var f *fs.File
		for _, sc := range []struct {
			name string
			call func()
		}{
			{"Create", func() { f, _ = r.v.Create(p, pr, "/f") }},
			{"Write", func() { r.v.Write(p, pr, f, 0, 4096) }},
			{"Read", func() { r.v.Read(p, pr, f, 0, 4096) }},
			{"Fsync", func() { r.v.Fsync(p, pr, f) }},
			{"Mkdir", func() { _ = r.v.Mkdir(p, pr, "/d") }},
			{"Unlink", func() { _ = r.v.Unlink(p, pr, "/f") }},
		} {
			before := calls(perf.BucketVFS)
			sc.call()
			if got := calls(perf.BucketVFS) - before; got != 1 {
				t.Errorf("%s added %d vfs calls, want 1", sc.name, got)
			}
		}
		r.v.Write(p, pr, mapped, 0, 4*cache.PageSize)
		before := calls(perf.BucketFS)
		r.v.Fsync(p, pr, mapped)
		if got := calls(perf.BucketFS) - before; got < 1 {
			t.Errorf("fsync of a dirty mapped file added %d fs calls, want >= 1", got)
		}
	})
	r.env.Run(sim.Time(time.Hour))
}
