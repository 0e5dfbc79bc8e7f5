package fault

import (
	"splitio/internal/device"
	"splitio/internal/metrics"
	"splitio/internal/sim"
)

// Device wraps a device.Disk, forwarding all timing to the inner model while
// applying a fault Plan and recording the persistence log. It preserves the
// inner disk's dispatch-order state machine exactly: service times of
// non-faulted requests are identical to an unwrapped run, so a zero-fault
// plan changes nothing but adds the log.
type Device struct {
	inner device.Disk
	plan  *Plan
	log   *Log

	cut      bool
	injected [numKinds]int64
}

// Interface conformance: the wrapper must be a drop-in Disk and expose the
// durability surface the fs layer probes for.
var (
	_ device.Disk             = (*Device)(nil)
	_ device.DurabilityMarker = (*Device)(nil)
)

// Wrap returns a fault device around inner driven by plan (a nil plan
// injects nothing but still records the log).
func Wrap(inner device.Disk, plan *Plan) *Device {
	if plan == nil {
		plan = NewPlan(1)
	}
	return &Device{inner: inner, plan: plan, log: NewLog()}
}

// Inner returns the wrapped disk model.
func (d *Device) Inner() device.Disk { return d.inner }

// Log returns the persistence log recorded so far.
func (d *Device) Log() *Log { return d.log }

// Plan returns the fault plan.
func (d *Device) Plan() *Plan { return d.plan }

// Injected returns how many faults of kind k have been injected.
func (d *Device) Injected(k Kind) int64 {
	if k < 0 || k >= numKinds {
		return 0
	}
	return d.injected[k]
}

// Name implements Disk; the prefix makes wrapped runs self-identifying in
// traces and reports.
func (d *Device) Name() string { return "fault+" + d.inner.Name() }

// Blocks implements Disk.
func (d *Device) Blocks() int64 { return d.inner.Blocks() }

// SeqBandwidth implements Disk.
func (d *Device) SeqBandwidth() float64 { return d.inner.SeqBandwidth() }

// MediaWrites implements device.DurabilityMarker.
func (d *Device) MediaWrites() int64 { return int64(len(d.log.Records)) }

// MarkDurable implements device.DurabilityMarker, recording an fsync
// acknowledgement promise into the log.
func (d *Device) MarkDurable(ino, upTo int64) {
	d.log.Marks = append(d.log.Marks, Mark{Ino: ino, UpTo: upTo, AckSeq: int64(len(d.log.Records))})
}

// Serve implements Disk: it forwards to the inner model, then logs writes
// (with the request's semantic tags and the plan's per-write fault
// decisions) and injects read errors. The power cut is evaluated before the
// write is logged, so the cut point lies between records.
func (d *Device) Serve(r device.Request) device.Service {
	if r.Blocks <= 0 {
		r.Blocks = 1
	}
	s := d.inner.Serve(r)
	if r.Op == device.Read {
		if d.plan.readError() {
			d.injected[KindReadError]++
			d.log.ReadFaults = append(d.log.ReadFaults, ReadFault{At: sim.Time(r.Now) + sim.Time(s.Total), LBA: r.LBA})
			// A latent sector error costs one internal retry pass.
			s.Total *= 2
		}
		return s
	}
	seq := int64(len(d.log.Records))
	if !d.cut {
		if (d.plan.CutTime > 0 && r.Now >= d.plan.CutTime) ||
			(d.plan.CutAfterWrites > 0 && seq >= d.plan.CutAfterWrites) {
			d.cut = true
			d.log.CutIndex = int(seq)
			d.injected[KindPowerCut]++
		}
	}
	rec := Record{
		Seq:     seq,
		At:      sim.Time(r.Now) + sim.Time(s.Total),
		LBA:     r.LBA,
		Blocks:  r.Blocks,
		Sync:    r.Sync,
		Journal: r.Journal,
		Meta:    r.Meta,
		Barrier: r.Barrier,
		FileID:  r.FileID,
		TxnID:   r.TxnID,
		Pages:   r.Pages,
	}
	if rec.Torn = d.plan.tornBlocks(r.Blocks); rec.Torn > 0 {
		d.injected[KindTornWrite]++
	}
	if d.plan.lost() {
		rec.Lost = true
		d.injected[KindLostWrite]++
	}
	d.log.Records = append(d.log.Records, rec)
	return s
}

// RegisterMetrics adds the fault plane's standard gauges to r.
func (d *Device) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("fault.media_writes", func() float64 { return float64(len(d.log.Records)) })
	r.Gauge("fault.fsync_marks", func() float64 { return float64(len(d.log.Marks)) })
	r.Gauge("fault.injected_power_cut", func() float64 { return float64(d.injected[KindPowerCut]) })
	r.Gauge("fault.injected_torn_writes", func() float64 { return float64(d.injected[KindTornWrite]) })
	r.Gauge("fault.injected_lost_writes", func() float64 { return float64(d.injected[KindLostWrite]) })
	r.Gauge("fault.injected_read_errors", func() float64 { return float64(d.injected[KindReadError]) })
}
