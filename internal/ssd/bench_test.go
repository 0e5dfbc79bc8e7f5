package ssd

import (
	"testing"
	"time"

	"splitio/internal/device"
	"splitio/internal/sim"
)

// BenchmarkFTLMapLookup measures the read path through the page map on an
// aged device: l2p lookup, die resolution, busy-until accounting. This is
// the per-request cost the block dispatcher pays on every FTL read.
func BenchmarkFTLMapLookup(b *testing.B) {
	env := sim.NewEnv(1)
	d := New(env, testConfig())
	d.Age(0.9, 2)
	blocks := d.Blocks()
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := (int64(i) * 4421) % blocks
		now += d.Serve(device.Request{Op: device.Read, LBA: lp, Blocks: 1, Now: now}).Total
	}
}

// BenchmarkGCVictimSelect measures greedy victim selection — a full scan of
// block valid-counts — on an aged device where nearly every block is full.
// This is the dominant cost of each background collection cycle.
func BenchmarkGCVictimSelect(b *testing.B) {
	env := sim.NewEnv(1)
	d := New(env, testConfig())
	d.Age(0.9, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := d.victim(); v < -1 {
			b.Fatal("impossible victim")
		}
	}
}
