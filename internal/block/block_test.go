package block

import (
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/sim"
)

func newTestLayer(elv Elevator) (*sim.Env, *Layer) {
	env := sim.NewEnv(1)
	return env, NewLayer(env, device.NewSSD(), elv)
}

func TestSubmitCompletes(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	r := &Request{Op: device.Read, LBA: 100, Blocks: 1}
	done := l.Submit(r)
	env.RunAll()
	if !done.Done() {
		t.Fatal("request never completed")
	}
	if r.Service <= 0 {
		t.Fatal("service time not recorded")
	}
	if r.Start < r.Queued {
		t.Fatal("start before queue")
	}
	env.Close()
}

func TestFIFOOrder(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	var order []int64
	for i := int64(0); i < 5; i++ {
		i := i
		done := l.Submit(&Request{Op: device.Write, LBA: i * 1000, Blocks: 1})
		done.WaitFn(func() { order = append(order, i) })
	}
	env.RunAll()
	for i := range order {
		if order[i] != int64(i) {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	env.Close()
}

func TestSubmitAndWait(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		l.Submit(&Request{Op: device.Read, LBA: 1, Blocks: 1}).Wait(p)
		elapsed = p.Now().Sub(start)
	})
	env.RunAll()
	if elapsed <= 0 {
		t.Fatal("Submit(r).Wait returned instantly")
	}
	env.Close()
}

func TestStats(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	l.Submit(&Request{Op: device.Read, LBA: 1, Blocks: 2})
	l.Submit(&Request{Op: device.Write, LBA: 10, Blocks: 3})
	env.RunAll()
	s := l.Stats()
	if s.Requests != 2 {
		t.Fatalf("Requests = %d", s.Requests)
	}
	if s.BlocksRead != 2 || s.BlocksWrite != 3 {
		t.Fatalf("blocks = %d read %d write", s.BlocksRead, s.BlocksWrite)
	}
	if s.BusyTime <= 0 {
		t.Fatal("BusyTime not accumulated")
	}
	env.Close()
}

func TestZeroBlocksClamped(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	r := &Request{Op: device.Read, LBA: 1}
	l.Submit(r)
	env.RunAll()
	if r.Blocks != 1 {
		t.Fatalf("Blocks = %d, want clamped to 1", r.Blocks)
	}
	env.Close()
}

type recordingHooks struct {
	added, dispatched, completed int
}

func (h *recordingHooks) BlockAdded(r *Request)      { h.added++ }
func (h *recordingHooks) BlockDispatched(r *Request) { h.dispatched++ }
func (h *recordingHooks) BlockCompleted(r *Request)  { h.completed++ }

func TestHooksFire(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	h := &recordingHooks{}
	l.SetHooks(h)
	l.Submit(&Request{Op: device.Read, LBA: 1, Blocks: 1})
	l.Submit(&Request{Op: device.Write, LBA: 2, Blocks: 1})
	env.RunAll()
	if h.added != 2 || h.dispatched != 2 || h.completed != 2 {
		t.Fatalf("hooks = %+v, want 2/2/2", *h)
	}
	env.Close()
}

// lazyElevator holds requests until kicked, exercising the Kick path.
type lazyElevator struct {
	FIFO
	release bool
}

func (l *lazyElevator) Name() string { return "lazy" }
func (l *lazyElevator) Next(now sim.Time) *Request {
	if !l.release {
		return nil
	}
	return l.FIFO.Next(now)
}

func TestKickWakesDispatcher(t *testing.T) {
	env := sim.NewEnv(1)
	lazy := &lazyElevator{}
	l := NewLayer(env, device.NewSSD(), lazy)
	done := l.Submit(&Request{Op: device.Read, LBA: 1, Blocks: 1})
	env.Schedule(time.Second, func() {
		lazy.release = true
		l.Kick()
	})
	env.RunAll()
	if !done.Done() {
		t.Fatal("kick did not release request")
	}
	if env.Now() < sim.Time(time.Second) {
		t.Fatal("request completed before release")
	}
	env.Close()
}

func TestRequestBytes(t *testing.T) {
	r := &Request{Blocks: 4}
	if r.Bytes() != 4*device.BlockSize {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
}

func TestCausesCarriedThrough(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	r := &Request{Op: device.Write, LBA: 5, Blocks: 1, Causes: causes.Of(3, 7), Submitter: 9}
	l.Submit(r)
	env.RunAll()
	if !r.Causes.Equal(causes.Of(3, 7)) || r.Submitter != 9 {
		t.Fatal("tags lost in flight")
	}
	env.Close()
}

func TestBackToBackSequentialFasterThanRandomOnHDD(t *testing.T) {
	env := sim.NewEnv(1)
	l := NewLayer(env, device.NewHDD(), NewFIFO())
	for i := int64(0); i < 64; i++ {
		l.Submit(&Request{Op: device.Read, LBA: i, Blocks: 1})
	}
	env.RunAll()
	seqTime := env.Now()
	env.Close()

	env2 := sim.NewEnv(1)
	l2 := NewLayer(env2, device.NewHDD(), NewFIFO())
	lba := int64(7)
	for i := 0; i < 64; i++ {
		lba = (lba*48271 + 11) % device.NewHDD().Capacity
		l2.Submit(&Request{Op: device.Read, LBA: lba, Blocks: 1})
	}
	env2.RunAll()
	rndTime := env2.Now()
	env2.Close()

	if rndTime < 10*seqTime {
		t.Fatalf("random workload (%v) should be >>10x sequential (%v)", rndTime, seqTime)
	}
}

// TestConservation: every submitted request completes exactly once, and
// block counters equal the sum of submitted sizes.
func TestConservation(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	const n = 200
	completed := 0
	var blocks int64
	rng := int64(12345)
	for i := 0; i < n; i++ {
		rng = rng*48271 + 7
		v := rng
		if v < 0 {
			v = -v
		}
		op := device.Read
		if v%2 == 0 {
			op = device.Write
		}
		nb := int(v%7) + 1
		blocks += int64(nb)
		done := l.Submit(&Request{Op: op, LBA: v % 100000, Blocks: nb})
		done.WaitFn(func() { completed++ })
	}
	env.RunAll()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	st := l.Stats()
	if st.BlocksRead+st.BlocksWrite != blocks {
		t.Fatalf("block counters %d != submitted %d", st.BlocksRead+st.BlocksWrite, blocks)
	}
	env.Close()
}

// TestDispatchSerialized: the device serves one request at a time — busy
// time equals elapsed time for a saturated queue.
func TestDispatchSerialized(t *testing.T) {
	env, l := newTestLayer(NewFIFO())
	for i := int64(0); i < 50; i++ {
		l.Submit(&Request{Op: device.Read, LBA: i * 999, Blocks: 1})
	}
	env.RunAll()
	if got, want := l.Stats().BusyTime, env.Now(); time.Duration(want) != got {
		t.Fatalf("busy %v != elapsed %v for saturated queue", got, want)
	}
	env.Close()
}
