package fault

import (
	"reflect"
	"testing"
	"time"

	"splitio/internal/device"
)

// drive pushes a fixed write/read stream through a fault device, tagging
// every request the way the block dispatcher does, and returns the device.
func drive(plan *Plan) *Device {
	d := Wrap(device.NewSSD(), plan)
	now := time.Duration(0)
	step := func(r device.Request) {
		r.Now = now
		now += d.Serve(r).Total
	}
	for txn := int64(1); txn <= 4; txn++ {
		for i := int64(0); i < 6; i++ {
			step(device.Request{Op: device.Write, LBA: 1000 + txn*64 + i*2, Blocks: 2,
				FileID: 7, Pages: device.PageRange{First: i, N: 2}})
		}
		step(device.Request{Op: device.Write, LBA: 5000 + txn*8, Blocks: 3,
			Journal: true, Meta: true, Sync: true, TxnID: txn})
		step(device.Request{Op: device.Write, LBA: 5003 + txn*8, Blocks: 1, Barrier: true,
			Journal: true, Sync: true, TxnID: txn})
		step(device.Request{Op: device.Read, LBA: 1000 + txn*64, Blocks: 4, FileID: 7})
	}
	return d
}

func TestSameSeedSameLog(t *testing.T) {
	mk := func(seed int64) *Plan {
		p := NewPlan(seed)
		p.TornProb = 0.5
		p.LostProb = 0.2
		p.ReadErrProb = 0.3
		p.CutAfterWrites = 20
		return p
	}
	a := drive(mk(42)).Log()
	b := drive(mk(42)).Log()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs produced different logs:\n%+v\n--- vs ---\n%+v", a, b)
	}
	if c := drive(mk(43)).Log(); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fault schedules (suspicious)")
	}
}

func TestZeroPlanIsTransparent(t *testing.T) {
	d := drive(NewPlan(1))
	if got := len(d.Log().Records); got != 32 {
		t.Fatalf("recorded %d writes, want 32", got)
	}
	if d.Log().CutIndex != -1 {
		t.Errorf("zero plan set CutIndex=%d, want -1", d.Log().CutIndex)
	}
	for _, k := range Kinds() {
		if n := d.Injected(k); n != 0 {
			t.Errorf("zero plan injected %d %s faults", n, k)
		}
	}
	// Timing must be identical to the unwrapped model.
	inner := device.NewSSD()
	rec := d.Log().Records[0]
	want := inner.Serve(device.Request{Op: device.Write, LBA: rec.LBA, Blocks: rec.Blocks, Barrier: rec.Barrier}).Total
	if got := time.Duration(rec.At); got != want {
		t.Errorf("first write acked at %v, unwrapped model says %v", got, want)
	}
}

func TestPowerCutByWriteCount(t *testing.T) {
	p := NewPlan(7)
	p.CutAfterWrites = 10
	d := drive(p)
	if d.Log().CutIndex != 10 {
		t.Fatalf("CutIndex=%d, want 10", d.Log().CutIndex)
	}
	if d.Injected(KindPowerCut) != 1 {
		t.Fatalf("power cut injected %d times, want 1", d.Injected(KindPowerCut))
	}
	// Writes keep being logged after the cut: the checker decides what the
	// crash image contains; the device keeps simulating.
	if got := len(d.Log().Records); got != 32 {
		t.Errorf("recorded %d writes, want 32", got)
	}
}

func TestPowerCutByTime(t *testing.T) {
	p := NewPlan(7)
	p.CutTime = time.Microsecond // after the first write completes
	d := drive(p)
	if d.Log().CutIndex <= 0 || d.Log().CutIndex >= 32 {
		t.Fatalf("CutIndex=%d, want an interior crash point", d.Log().CutIndex)
	}
	if d.Injected(KindPowerCut) != 1 {
		t.Fatalf("power cut injected %d times, want 1", d.Injected(KindPowerCut))
	}
}

func TestLastBarrierSkipsLostBarriers(t *testing.T) {
	l := NewLog()
	l.Records = []Record{
		{Seq: 0, Barrier: false},
		{Seq: 1, Barrier: true},
		{Seq: 2, Barrier: false},
		{Seq: 3, Barrier: true, Lost: true},
		{Seq: 4, Barrier: false},
	}
	if got := l.LastBarrier(5); got != 1 {
		t.Errorf("LastBarrier(5)=%d, want 1 (lost barrier at 3 does not flush)", got)
	}
	if got := l.LastBarrier(1); got != -1 {
		t.Errorf("LastBarrier(1)=%d, want -1", got)
	}
	if got := l.LastBarrier(99); got != 1 {
		t.Errorf("LastBarrier clamps cut; got %d, want 1", got)
	}
}

func TestDurabilityMarks(t *testing.T) {
	d := Wrap(device.NewSSD(), NewPlan(1))
	if d.MediaWrites() != 0 {
		t.Fatalf("fresh device reports %d media writes", d.MediaWrites())
	}
	d.Serve(device.Request{Op: device.Write, LBA: 100, Blocks: 1, FileID: 9, Pages: device.PageRange{First: 0, N: 1}})
	upTo := d.MediaWrites()
	d.Serve(device.Request{Op: device.Write, LBA: 200, Blocks: 1, Barrier: true, Journal: true, TxnID: 1})
	d.MarkDurable(9, upTo)
	marks := d.Log().Marks
	if len(marks) != 1 {
		t.Fatalf("recorded %d marks, want 1", len(marks))
	}
	if m := marks[0]; m.Ino != 9 || m.UpTo != 1 || m.AckSeq != 2 {
		t.Errorf("mark = %+v, want {Ino:9 UpTo:1 AckSeq:2}", m)
	}
}

func TestFaultCounters(t *testing.T) {
	p := NewPlan(3)
	p.TornProb = 1
	p.LostProb = 1
	p.ReadErrProb = 1
	d := drive(p)
	if d.Injected(KindTornWrite) == 0 {
		t.Error("TornProb=1 injected no torn writes")
	}
	if d.Injected(KindLostWrite) != 32 {
		t.Errorf("LostProb=1 lost %d/32 writes", d.Injected(KindLostWrite))
	}
	if d.Injected(KindReadError) != 4 {
		t.Errorf("ReadErrProb=1 injected %d read errors, want 4", d.Injected(KindReadError))
	}
	if len(d.Log().ReadFaults) != 4 {
		t.Errorf("logged %d read faults, want 4", len(d.Log().ReadFaults))
	}
	// The retry pass doubles the service total; the positioning and
	// transfer the inner model reported, and so the trace spans, stay.
	r := device.Request{Op: device.Read, LBA: 42, Blocks: 3}
	raw := device.NewSSD().Serve(r)
	got := Wrap(device.NewSSD(), p).Serve(r)
	if want := (device.Service{Total: 2 * raw.Total, Position: raw.Position, Transfer: raw.Transfer}); got != want {
		t.Errorf("read retry served %+v, want %+v", got, want)
	}
	// Single-block writes cannot tear.
	for i := range d.Log().Records {
		r := &d.Log().Records[i]
		if r.Blocks == 1 && r.Torn != 0 {
			t.Errorf("single-block record %d torn to %d", r.Seq, r.Torn)
		}
		if r.Torn >= r.Blocks {
			t.Errorf("record %d torn to %d of %d blocks (must be a strict prefix)", r.Seq, r.Torn, r.Blocks)
		}
	}
}
