package core

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/device"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// fifoSched is a minimal scheduler for kernel tests.
type fifoSched struct {
	elv      *block.FIFO
	attached bool
}

func newFifo(env *sim.Env) Scheduler { return &fifoSched{elv: block.NewFIFO()} }

func (s *fifoSched) Name() string             { return "test-fifo" }
func (s *fifoSched) Elevator() block.Elevator { return s.elv }
func (s *fifoSched) Attach(k *Kernel)         { s.attached = true }

func TestKernelAssembly(t *testing.T) {
	k := NewKernel(DefaultOptions(), newFifo)
	defer k.Close()
	if k.Env == nil || k.Block == nil || k.Cache == nil || k.FS == nil || k.VFS == nil || k.CPU == nil {
		t.Fatal("kernel has nil components")
	}
	if !k.Sched.(*fifoSched).attached {
		t.Fatal("scheduler not attached")
	}
	if k.FS.Name() != "ext4sim" {
		t.Fatalf("default fs = %s", k.FS.Name())
	}
	if k.Disk.Name() != "hdd" {
		t.Fatalf("default disk = %s", k.Disk.Name())
	}
}

func TestKernelOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.Disk = SSD
	opts.FS = XFS
	k := NewKernel(opts, newFifo)
	defer k.Close()
	if k.Disk.Name() != "ssd" || k.FS.Name() != "xfssim" {
		t.Fatalf("options not applied: %s/%s", k.Disk.Name(), k.FS.Name())
	}
}

func TestSpawnAndRun(t *testing.T) {
	k := NewKernel(DefaultOptions(), newFifo)
	defer k.Close()
	var ranAt sim.Time
	pr := k.Spawn("worker", 3, func(p *sim.Proc, pr *vfs.Process) {
		p.Sleep(time.Second)
		ranAt = p.Now()
	})
	if pr.Ctx.Prio != 3 {
		t.Fatalf("prio = %d", pr.Ctx.Prio)
	}
	k.Run(2 * time.Second)
	if ranAt != sim.Time(time.Second) {
		t.Fatalf("body ran at %v", ranAt)
	}
	if k.Now() != sim.Time(2*time.Second) {
		t.Fatalf("Now = %v", k.Now())
	}
}

func TestEndToEndWriteFsync(t *testing.T) {
	k := NewKernel(DefaultOptions(), newFifo)
	defer k.Close()
	k.Spawn("w", 4, func(p *sim.Proc, pr *vfs.Process) {
		f, err := k.VFS.Create(p, pr, "/f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		k.VFS.Write(p, pr, f, 0, 16*4096)
		k.VFS.Fsync(p, pr, f)
	})
	k.Run(time.Minute)
	if k.FS.Commits() == 0 {
		t.Fatal("no commit happened")
	}
	if k.Block.Stats().BlocksWrite < 16 {
		t.Fatalf("blocks written = %d", k.Block.Stats().BlocksWrite)
	}
}

func TestSeqAndRandPageCost(t *testing.T) {
	k := NewKernel(DefaultOptions(), newFifo)
	defer k.Close()
	if k.RandPageCost() <= k.SeqPageCost() {
		t.Fatal("HDD random page should cost more than sequential")
	}
	opts := DefaultOptions()
	opts.Disk = SSD
	ks := NewKernel(opts, newFifo)
	defer ks.Close()
	if ks.RandPageCost() >= k.RandPageCost() {
		t.Fatal("SSD random cost should be far below HDD")
	}
}

func TestNormalizedBytes(t *testing.T) {
	k := NewKernel(DefaultOptions(), newFifo)
	defer k.Close()
	r := &block.Request{Op: device.Write, Service: 10 * time.Millisecond}
	got := k.NormalizedBytes(r)
	want := 0.010 * k.Disk.SeqBandwidth()
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("NormalizedBytes = %v, want ~%v", got, want)
	}
}

func TestWriteEstimator(t *testing.T) {
	e := NewWriteEstimator(1 << 20)
	// First touch is charged sequentially, and so is the rest of the run.
	if head, rest := e.EstimateRun(1, 0, 1); head != e.SeqBytes || rest != e.SeqBytes {
		t.Fatalf("first = %v, %v", head, rest)
	}
	// Sequential advance stays cheap.
	if head, _ := e.EstimateRun(1, 2, 2); head != e.SeqBytes {
		t.Fatalf("seq = %v", head)
	}
	// A big jump is charged as random.
	if head, _ := e.EstimateRun(1, 100000, 100000); head != 1<<20 {
		t.Fatalf("rand = %v", head)
	}
	// Files have independent state.
	if head, _ := e.EstimateRun(2, 50, 60); head != e.SeqBytes {
		t.Fatalf("new file = %v", head)
	}
	e.Forget(1)
	if head, _ := e.EstimateRun(1, 999999, 999999); head != e.SeqBytes {
		t.Fatalf("after Forget = %v", head)
	}
}

// TestEstimateRunMatchesPerPage estimates random runs of pages within one
// cache chunk, some pages skipped, with EstimateRun and with the per-page
// model it replaces: each page is sequential unless it lies more than
// Window pages from the page estimated before it in the same file. Every
// page must cost the same.
func TestEstimateRunMatchesPerPage(t *testing.T) {
	e := NewWriteEstimator(1 << 20)
	lastIdx := map[int64]int64{}
	perPage := func(ino, idx int64) float64 {
		last, seen := lastIdx[ino]
		lastIdx[ino] = idx
		if d := idx - last; seen && (d > e.Window || d < -e.Window) {
			return e.RandBytes
		}
		return e.SeqBytes
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		ino := 1 + rng.Int63n(3)
		base := rng.Int63n(8) << 6
		if rng.Intn(4) == 0 {
			base = rng.Int63n(1<<20) << 6
		}
		pages := rng.Uint64()
		if pages == 0 {
			pages = 1
		}
		if rng.Intn(20) == 0 {
			e.Forget(ino)
			delete(lastIdx, ino)
		}
		first := base + int64(bits.TrailingZeros64(pages))
		last := base + 63 - int64(bits.LeadingZeros64(pages))
		head, rest := e.EstimateRun(ino, first, last)
		want := head
		for m := pages; m != 0; m &= m - 1 {
			idx := base + int64(bits.TrailingZeros64(m))
			if got := perPage(ino, idx); got != want {
				t.Fatalf("run %d: page %d of file %d costs %v per page, %v in the run", i, idx, ino, got, want)
			}
			want = rest
		}
	}
}

func TestDeterministicKernelRuns(t *testing.T) {
	run := func() int64 {
		k := NewKernel(DefaultOptions(), newFifo)
		defer k.Close()
		k.Spawn("w", 4, func(p *sim.Proc, pr *vfs.Process) {
			f, _ := k.VFS.Create(p, pr, "/f")
			for i := int64(0); i < 100; i++ {
				off := (i * 7919 % 5000) * 4096
				k.VFS.Write(p, pr, f, off, 4096)
				if i%10 == 0 {
					k.VFS.Fsync(p, pr, f)
				}
			}
		})
		k.Run(30 * time.Second)
		return k.Block.Stats().BlocksWrite
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
