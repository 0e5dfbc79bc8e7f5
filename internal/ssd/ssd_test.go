package ssd

import (
	"testing"
	"time"

	"splitio/internal/device"
	"splitio/internal/sim"
)

// testConfig is a tiny geometry that ages instantly: 2 channels × 2 dies ×
// 1 plane × 16 blocks × 32 pages = 64 blocks / 2048 pages physical, 25%
// over-provisioned (1536 exported pages ≈ 6 MiB).
func testConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.DiesPerChan = 2
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 16
	c.PagesPerBlock = 32
	c.OverProvision = 0.25
	c.GCLowWater = 6
	c.GCCritical = 2
	return c
}

func newTestDevice(seed int64) (*sim.Env, *Device) {
	env := sim.NewEnv(seed)
	return env, New(env, testConfig())
}

func TestGeometry(t *testing.T) {
	_, d := newTestDevice(1)
	if d.Blocks() != 1536 {
		t.Fatalf("exported blocks = %d, want 1536", d.Blocks())
	}
	if d.SeqBandwidth() <= 0 {
		t.Fatalf("SeqBandwidth = %v, want > 0", d.SeqBandwidth())
	}
	if d.FreeBlocks() != 64 {
		t.Fatalf("free blocks = %d, want 64", d.FreeBlocks())
	}
}

// TestDieParallelism: consecutive writes stripe over dies on distinct
// channels, so the second write of a pair overlaps the first completely
// and costs the same, while a write that shares a channel pays the extra
// transfer serialization.
func TestDieParallelism(t *testing.T) {
	_, d := newTestDevice(1)
	svc1 := d.Serve(device.Request{Op: device.Write, LBA: 0, Blocks: 1}).Total
	svc2 := d.Serve(device.Request{Op: device.Write, LBA: 1, Blocks: 1}).Total
	svc3 := d.Serve(device.Request{Op: device.Write, LBA: 2, Blocks: 1}).Total
	if svc1 != chanXfer+pageProgram {
		t.Fatalf("first write svc = %v, want xfer+program = %v", svc1, chanXfer+pageProgram)
	}
	if svc2 != svc1 {
		t.Fatalf("parallel-die write svc = %v, want %v (full overlap)", svc2, svc1)
	}
	if svc3 <= svc1 {
		t.Fatalf("channel-sharing write svc = %v, want > %v", svc3, svc1)
	}
}

// TestMultiPageOverlap: an 8-page write uses all four dies, so it costs
// far less than eight serialized page writes.
func TestMultiPageOverlap(t *testing.T) {
	_, d := newTestDevice(1)
	svc := d.Serve(device.Request{Op: device.Write, LBA: 0, Blocks: 8}).Total
	serial := 8 * (chanXfer + pageProgram)
	if svc >= serial {
		t.Fatalf("8-page write svc = %v, want < serialized %v", svc, serial)
	}
	if svc < pageProgram {
		t.Fatalf("8-page write svc = %v, implausibly small", svc)
	}
}

func TestBarrierCharged(t *testing.T) {
	_, d1 := newTestDevice(1)
	_, d2 := newTestDevice(1)
	plain := d1.Serve(device.Request{Op: device.Write, LBA: 0, Blocks: 1}).Total
	barrier := d2.Serve(device.Request{Op: device.Write, LBA: 0, Blocks: 1, Barrier: true}).Total
	if barrier != plain+pageProgram {
		t.Fatalf("barrier svc = %v, want plain %v + program", barrier, plain)
	}
}

func TestReadUnmappedAndMapped(t *testing.T) {
	_, d := newTestDevice(1)
	if svc := d.Serve(device.Request{Op: device.Read, LBA: 7, Blocks: 1}).Total; svc <= 0 {
		t.Fatalf("unmapped read svc = %v, want > 0", svc)
	}
	d.Serve(device.Request{Op: device.Write, LBA: 7, Blocks: 1, Now: time.Second})
	if svc := d.Serve(device.Request{Op: device.Read, LBA: 7, Blocks: 1, Now: 2 * time.Second}).Total; svc != pageRead+chanXfer {
		t.Fatalf("mapped idle read svc = %v, want read+xfer", svc)
	}
}

// TestBreakdownSums: position + transfer must equal the service time, the
// contract the block layer's trace spans rely on.
func TestBreakdownSums(t *testing.T) {
	_, d := newTestDevice(1)
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		op := device.Write
		if i%3 == 0 {
			op = device.Read
		}
		s := d.Serve(device.Request{Op: op, LBA: int64(i * 13), Blocks: 1 + i%4, Now: now, Barrier: i%7 == 0})
		if s.Position < 0 || s.Transfer < 0 || s.Position+s.Transfer != s.Total {
			t.Fatalf("step %d: breakdown %v+%v != svc %v", i, s.Position, s.Transfer, s.Total)
		}
		if s.GCStall < 0 || s.GCStall > s.Total {
			t.Fatalf("step %d: gc stall %v outside [0, %v]", i, s.GCStall, s.Total)
		}
		now += s.Total
	}
}

func TestAge(t *testing.T) {
	_, d := newTestDevice(1)
	d.Age(0.9, 2)
	if got, want := d.FreeBlocks(), d.cfg.GCLowWater+2; got != want {
		t.Fatalf("free blocks after aging = %d, want %d", got, want)
	}
	if d.HostPages() != 0 || d.GCPages() != 0 {
		t.Fatalf("aging moved service counters: host=%d gc=%d", d.HostPages(), d.GCPages())
	}
	// Mapped state survives: a read of an aged page hits its die directly.
	if svc := d.Serve(device.Request{Op: device.Read, LBA: 0, Blocks: 1}).Total; svc != pageRead+chanXfer {
		t.Fatalf("aged read svc = %v, want read+xfer", svc)
	}
}
