package ssd

import (
	"testing"
	"time"

	"splitio/internal/device"
	"splitio/internal/sim"
)

// driveSteadyState ages a device to the watermark and then issues writes
// in a fixed prime stride, paced like the block dispatcher (one request in
// flight), so the background collector runs against live traffic. It
// returns the device for inspection.
func driveSteadyState(seed int64, writes int) *Device {
	env := sim.NewEnv(seed)
	d := New(env, testConfig())
	d.Age(0.9, 1)
	env.Go("writer", func(p *sim.Proc) {
		lp := int64(0)
		for i := 0; i < writes; i++ {
			svc := d.Serve(device.Request{Op: device.Write, LBA: lp, Blocks: 1, Now: time.Duration(p.Now())}).Total
			p.Sleep(svc)
			lp = (lp + 4421) % d.Blocks()
		}
	})
	env.Run(sim.Time(int64(time.Hour)))
	return d
}

// TestSteadyStateGC: under sustained overwrites on an aged device, GC
// engages, write amplification exceeds 1, and the free pool never drains
// (the emergency floor holds while the background collector reclaims).
func TestSteadyStateGC(t *testing.T) {
	d := driveSteadyState(1, 2000)
	if d.GCRuns() == 0 {
		t.Fatalf("no GC runs after %d steady-state writes", 2000)
	}
	if wa := d.WriteAmp(); wa <= 1 {
		t.Fatalf("write amplification = %v, want > 1", wa)
	}
	if d.MinFreeBlocks() < 1 {
		t.Fatalf("free pool drained: min free = %d", d.MinFreeBlocks())
	}
	if d.Erases() != d.GCRuns() {
		t.Fatalf("erases = %d, gc runs = %d; every collection erases exactly one victim", d.Erases(), d.GCRuns())
	}
	if d.StallTotal() <= 0 {
		t.Fatalf("no foreground GC stalls recorded under steady-state GC")
	}
	if d.GCBusy() <= 0 {
		t.Fatalf("gc busy time not accounted")
	}
}

// TestGCWatermarkRecovery: once traffic stops, the collector restores the
// free pool above the low-watermark.
func TestGCWatermarkRecovery(t *testing.T) {
	d := driveSteadyState(1, 2000)
	if free := d.FreeBlocks(); free <= d.cfg.GCCritical {
		t.Fatalf("free blocks = %d did not recover above critical %d", free, d.cfg.GCCritical)
	}
	if free := d.FreeBlocks(); free < d.cfg.GCLowWater {
		t.Fatalf("free blocks = %d still below low-watermark %d after idle", free, d.cfg.GCLowWater)
	}
}

// TestGCDeterminism: same seed, same workload → byte-identical GC victim
// selection (the migration-trace hash) and counters.
func TestGCDeterminism(t *testing.T) {
	a := driveSteadyState(7, 1500)
	b := driveSteadyState(7, 1500)
	if a.GCTraceHash() != b.GCTraceHash() {
		t.Fatalf("migration-trace hash diverged: %x vs %x", a.GCTraceHash(), b.GCTraceHash())
	}
	if a.HostPages() != b.HostPages() || a.GCPages() != b.GCPages() ||
		a.Erases() != b.Erases() || a.StallTotal() != b.StallTotal() {
		t.Fatalf("counters diverged: %d/%d/%d/%v vs %d/%d/%d/%v",
			a.HostPages(), a.GCPages(), a.Erases(), a.StallTotal(),
			b.HostPages(), b.GCPages(), b.Erases(), b.StallTotal())
	}
	if a.GCRuns() == 0 {
		t.Fatalf("determinism witness vacuous: no GC ran")
	}
}

// TestGCGateDefers: with the gate closed, background GC defers while the
// pool is above critical, and proceeds regardless once it reaches it.
func TestGCGateDefers(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(env, testConfig())
	d.Age(0.9, 1)
	open := false
	d.SetGCGate(func() bool { return open })
	env.Go("writer", func(p *sim.Proc) {
		lp := int64(0)
		for i := 0; i < 120; i++ {
			svc := d.Serve(device.Request{Op: device.Write, LBA: lp, Blocks: 1, Now: time.Duration(p.Now())}).Total
			p.Sleep(svc)
			lp = (lp + 4421) % d.Blocks()
		}
	})
	// 120 writes ≈ 3.75 blocks: crosses the low-watermark (slack 1) but
	// stays above critical, so a closed gate means zero collections.
	env.Run(sim.Time(int64(10 * time.Second)))
	if d.GCRuns() != 0 {
		t.Fatalf("gated GC ran %d collections above the critical watermark", d.GCRuns())
	}
	if d.FreeBlocks() > d.cfg.GCLowWater {
		t.Fatalf("free = %d, test did not cross the low-watermark", d.FreeBlocks())
	}
	open = true
	env.Run(sim.Time(int64(20 * time.Second)))
	if d.GCRuns() == 0 {
		t.Fatalf("GC never resumed after the gate opened")
	}
	if d.FreeBlocks() < d.cfg.GCLowWater {
		t.Fatalf("free = %d did not recover after the gate opened", d.FreeBlocks())
	}
}

// TestEmergencyGC: even with the collector process never scheduled (the
// environment does not run), allocation pressure triggers synchronous
// collection rather than exhausting the pool.
func TestEmergencyGC(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(env, testConfig())
	d.Age(0.95, 0)
	// Overwrite far more than the remaining free pool without ever running
	// the env: only the inline emergency path can reclaim.
	lp := int64(0)
	now := time.Duration(0)
	for i := 0; i < 3000; i++ {
		now += d.Serve(device.Request{Op: device.Write, LBA: lp, Blocks: 1, Now: now}).Total
		lp = (lp + 4421) % d.Blocks()
	}
	if d.GCRuns() == 0 {
		t.Fatalf("emergency GC never ran")
	}
	if d.MinFreeBlocks() < 0 {
		t.Fatalf("free pool went negative")
	}
}
