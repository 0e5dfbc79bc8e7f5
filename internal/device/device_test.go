package device

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHDDSequentialVsRandom(t *testing.T) {
	d := NewHDD()
	// Warm up: position head at 0.
	d.Serve(Request{Op: Read, LBA: 0, Blocks: 1})
	seq := d.Serve(Request{Op: Read, LBA: 1, Blocks: 1}).Total
	rand := d.Serve(Request{Op: Read, LBA: d.Capacity / 2, Blocks: 1}).Total
	if rand < 100*seq {
		t.Fatalf("random (%v) should dwarf sequential (%v)", rand, seq)
	}
}

func TestHDDSequentialThroughput(t *testing.T) {
	d := NewHDD()
	var total time.Duration
	const blocks = 1000
	for i := int64(0); i < blocks; i++ {
		total += d.Serve(Request{Op: Read, LBA: i, Blocks: 1}).Total
	}
	bw := float64(blocks*BlockSize) / total.Seconds() / (1 << 20)
	if bw < 100 || bw > 160 {
		t.Fatalf("sequential bandwidth = %.1f MiB/s, want ~125", bw)
	}
}

func TestHDDRandomIOPS(t *testing.T) {
	d := NewHDD()
	var total time.Duration
	const n = 200
	lba := int64(1000)
	for i := 0; i < n; i++ {
		lba = (lba*48271 + 12345) % d.Capacity
		total += d.Serve(Request{Op: Read, LBA: lba, Blocks: 1}).Total
	}
	iops := float64(n) / total.Seconds()
	if iops < 40 || iops > 200 {
		t.Fatalf("random IOPS = %.0f, want 40-200", iops)
	}
}

func TestHDDNearSeekCheaperThanFar(t *testing.T) {
	d := NewHDD()
	d.Serve(Request{Op: Read, LBA: 0, Blocks: 1})
	near := d.Serve(Request{Op: Read, LBA: 100, Blocks: 1}).Total // within NearThreshold of head at 1
	d2 := NewHDD()
	d2.Serve(Request{Op: Read, LBA: 0, Blocks: 1})
	far := d2.Serve(Request{Op: Read, LBA: d2.Capacity - 1, Blocks: 1}).Total
	if near >= far {
		t.Fatalf("near (%v) should cost less than far (%v)", near, far)
	}
}

func TestHDDSeekMonotone(t *testing.T) {
	d := NewHDD()
	f := func(a, b uint32) bool {
		da, db := int64(a)%d.Capacity, int64(b)%d.Capacity
		if da > db {
			da, db = db, da
		}
		return d.seekTime(da) <= d.seekTime(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHDDMultiBlockTransfer(t *testing.T) {
	d := NewHDD()
	d.Serve(Request{Op: Read, LBA: 0, Blocks: 1})
	one := d.Serve(Request{Op: Read, LBA: 1, Blocks: 1}).Total
	d.Serve(Request{Op: Read, LBA: 0, Blocks: 1}) // reposition; next is near
	eight := d.Serve(Request{Op: Write, LBA: d.head, Blocks: 8}).Total
	if eight < 8*one {
		t.Fatalf("8-block transfer (%v) should take >= 8x one block (%v)", eight, one)
	}
}

func TestHDDZeroBlockClamped(t *testing.T) {
	d := NewHDD()
	if d.Serve(Request{Op: Read, LBA: 0, Blocks: 0}).Total <= 0 {
		t.Fatal("0-block request should be clamped to 1 block")
	}
}

func TestSSDFlatLatency(t *testing.T) {
	d := NewSSD()
	seq := d.Serve(Request{Op: Read, LBA: 0, Blocks: 1}).Total
	rnd := d.Serve(Request{Op: Read, LBA: d.Capacity / 2, Blocks: 1}).Total
	if seq != rnd {
		t.Fatalf("SSD sequential (%v) != random (%v)", seq, rnd)
	}
}

func TestSSDWritePenalty(t *testing.T) {
	d := NewSSD()
	r := d.Serve(Request{Op: Read, LBA: 0, Blocks: 1}).Total
	w := d.Serve(Request{Op: Write, LBA: 0, Blocks: 1}).Total
	if w <= r {
		t.Fatalf("SSD write (%v) should cost more than read (%v)", w, r)
	}
}

func TestSSDMuchFasterThanHDDRandom(t *testing.T) {
	h, s := NewHDD(), NewSSD()
	h.Serve(Request{Op: Read, LBA: 0, Blocks: 1})
	hr := h.Serve(Request{Op: Read, LBA: h.Capacity / 2, Blocks: 1}).Total
	sr := s.Serve(Request{Op: Read, LBA: s.Capacity / 2, Blocks: 1}).Total
	if hr < 20*sr {
		t.Fatalf("HDD random (%v) should be >20x SSD random (%v)", hr, sr)
	}
}

func TestSeqBandwidth(t *testing.T) {
	if bw := NewHDD().SeqBandwidth(); bw < 100e6 || bw > 160e6 {
		t.Fatalf("HDD SeqBandwidth = %v", bw)
	}
	if bw := NewSSD().SeqBandwidth(); bw < 200e6 || bw > 300e6 {
		t.Fatalf("SSD SeqBandwidth = %v", bw)
	}
}

func TestSqrt(t *testing.T) {
	for _, x := range []float64{0, 0.25, 1, 2, 100} {
		got := sqrt(x)
		if x == 0 && got != 0 {
			t.Fatal("sqrt(0) != 0")
		}
		if x > 0 {
			if diff := got*got - x; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("sqrt(%v) = %v (err %v)", x, got, diff)
			}
		}
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String broken")
	}
}
