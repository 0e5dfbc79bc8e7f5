package bdeadline

import (
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/device"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

func TestDefaultsApplied(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	r := &block.Request{Op: device.Read, LBA: 1, Blocks: 1}
	s.Add(r)
	if r.Deadline != sim.Time(50*time.Millisecond) {
		t.Fatalf("read deadline = %v", r.Deadline)
	}
	w := &block.Request{Op: device.Write, LBA: 2, Blocks: 1}
	s.Add(w)
	if w.Deadline != sim.Time(500*time.Millisecond) {
		t.Fatalf("write deadline = %v", w.Deadline)
	}
	nr, nw := s.Queued()
	if nr != 1 || nw != 1 {
		t.Fatalf("queued = %d/%d", nr, nw)
	}
}

func TestExpiredServedFirst(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	// Far-away read (location-wise) with an expired deadline must beat a
	// near write with slack.
	expired := &block.Request{Op: device.Read, LBA: 1 << 30, Blocks: 1, Deadline: 1}
	near := &block.Request{Op: device.Write, LBA: 10, Blocks: 1, Deadline: sim.Time(time.Hour)}
	s.Add(near)
	s.Add(expired)
	got := s.Next(sim.Time(time.Second))
	if got != expired {
		t.Fatal("expired request not served first")
	}
}

func TestLocationOrderWhenNoExpiry(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	far := &block.Request{Op: device.Read, LBA: 5000, Blocks: 1, Deadline: sim.Time(time.Hour)}
	nearr := &block.Request{Op: device.Read, LBA: 10, Blocks: 1, Deadline: sim.Time(time.Hour)}
	s.Add(far)
	s.Add(nearr)
	if got := s.Next(0); got != nearr {
		t.Fatal("location order not respected")
	}
	if got := s.Next(0); got != far {
		t.Fatal("scan order not respected")
	}
}

// TestExpiredTieRule pins which expired request goes first, on the read
// and the write path: the earliest deadline, and among equal deadlines the
// lowest position in the LBA-sorted queue, where a new request goes before
// those already queued at its LBA.
func TestExpiredTieRule(t *testing.T) {
	for _, op := range []device.Op{device.Read, device.Write} {
		env := sim.NewEnv(1)
		s := New(env).(*Sched)
		req := func(lba int64, deadline sim.Time) *block.Request {
			r := &block.Request{Op: op, LBA: lba, Blocks: 1, Deadline: deadline}
			s.Add(r)
			return r
		}
		older := req(100, 5)
		low := req(50, 5)
		newer := req(100, 5)
		later := req(10, 7)
		earliest := req(900, 3)
		want := []*block.Request{earliest, low, newer, older, later}
		for i, w := range want {
			if got := s.Next(sim.Time(10)); got != w {
				t.Fatalf("%v: pick %d = LBA %d deadline %d, want LBA %d deadline %d",
					op, i, got.LBA, got.Deadline, w.LBA, w.Deadline)
			}
		}
		env.Close()
	}
}

func TestWritesNotStarved(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	w := &block.Request{Op: device.Write, LBA: 1, Blocks: 1, Deadline: sim.Time(time.Hour)}
	s.Add(w)
	servedWrite := false
	for i := 0; i < 10; i++ {
		r := &block.Request{Op: device.Read, LBA: int64(100 + i), Blocks: 1, Deadline: sim.Time(time.Hour)}
		s.Add(r)
		if got := s.Next(0); got == w {
			servedWrite = true
			break
		}
	}
	if !servedWrite {
		t.Fatal("write starved behind continuous reads")
	}
}

// TestFsyncLatencyDependsOnOtherFlush reproduces Fig 5: A's one-block fsync
// latency scales with how much data B flushes, because block-level
// deadlines cannot cut through journal ordering.
func TestFsyncLatencyDependsOnOtherFlush(t *testing.T) {
	p99With := func(bBlocks int) time.Duration {
		k := schedtest.Kernel(t, Factory, nil)
		fa := schedtest.BigFile(k, "/a", 64<<20)
		fb := schedtest.BigFile(k, "/b", 2<<30)
		a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.WriteDeadline = 20 * time.Millisecond
			workload.FsyncAppender(k, p, pr, fa, 4096)
		})
		k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.WriteDeadline = 20 * time.Millisecond
			workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, bBlocks)
		})
		k.Run(60 * time.Second)
		return a.Fsyncs.Percentile(99)
	}
	small := p99With(4)
	big := p99With(512)
	if big < 3*small {
		t.Fatalf("A's p99 should grow with B's flush size: small=%v big=%v", small, big)
	}
}
