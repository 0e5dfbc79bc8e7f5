package ssd

import (
	"testing"
	"testing/quick"
	"time"

	"splitio/internal/device"
	"splitio/internal/fault"
	"splitio/internal/sim"
)

// step is one generated request in a conformance sequence. quick fills the
// fields from its PRNG; decode() folds them into a legal request whose Now
// is the idle gap since the previous one.
type step struct {
	Op      uint8
	LBA     int64
	N       uint8
	GapUS   uint16
	Barrier bool
}

func (s step) decode(blocks int64) device.Request {
	op := device.Read
	if s.Op%2 == 1 {
		op = device.Write
	}
	return device.Request{
		Op:      op,
		LBA:     ((s.LBA % blocks) + blocks) % blocks,
		Blocks:  int(s.N)%64 + 1,
		Now:     time.Duration(s.GapUS) * time.Microsecond, // gap after the previous request
		Barrier: s.Barrier,
		Sync:    s.Barrier,
	}
}

// TestDiskConformance is the shared device.Disk property test over the
// three disk models and each of them under a zero-fault fault.Device: for
// any request sequence, service times are positive, position and transfer
// sum to the total, and a model fed the identical sequence as its twin
// returns the identical Service. A raw model's twin is a fresh instance of
// itself, so its state depends only on dispatch order, never on host-side
// conditions. A wrapped model's twin is the raw model, so the wrapper
// passes every field through untouched. The wrapped FTL is aged to its GC
// watermark, so inline emergency collections hold dies and the GC stall is
// among the fields compared.
func TestDiskConformance(t *testing.T) {
	hdd := func() device.Disk { return device.NewHDD() }
	flat := func() device.Disk { return device.NewSSD() }
	ftl := func() device.Disk { return New(sim.NewEnv(1), testConfig()) }
	aged := func() device.Disk {
		d := New(sim.NewEnv(1), testConfig())
		d.Age(0.95, 0)
		return d
	}
	wrap := func(mk func() device.Disk) func() device.Disk {
		return func() device.Disk { return fault.Wrap(mk(), nil) }
	}
	models := []struct {
		name     string
		mk, twin func() device.Disk
	}{
		{"hdd", hdd, hdd},
		{"ssd", flat, flat},
		{"ftlssd", ftl, ftl},
		{"fault+hdd", wrap(hdd), hdd},
		{"fault+ssd", wrap(flat), flat},
		{"fault+ftlssd", wrap(aged), aged},
	}
	for _, m := range models {
		m := m
		t.Run(m.name, func(t *testing.T) {
			var stalls int
			prop := func(steps []step) bool {
				a, b := m.mk(), m.twin()
				blocks := a.Blocks()
				if blocks <= 0 || a.SeqBandwidth() <= 0 || a.Name() == "" {
					return false
				}
				now := time.Duration(0)
				for _, s := range steps {
					r := s.decode(blocks)
					now += r.Now
					r.Now = now
					sa, sb := a.Serve(r), b.Serve(r)
					if sa.Total <= 0 || sa != sb {
						return false
					}
					if sa.Position < 0 || sa.Transfer < 0 || sa.Position+sa.Transfer != sa.Total {
						return false
					}
					if sa.GCStall > 0 {
						stalls++
					}
					now += sa.Total
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
			if m.name == "fault+ftlssd" && stalls == 0 {
				t.Error("no request stalled behind GC; the GC stall went unchecked")
			}
		})
	}
}
