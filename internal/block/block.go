// Package block implements the simulated block layer: a request structure
// carrying cross-layer cause tags, a dispatcher process that feeds one
// request at a time to the device, and a pluggable Elevator interface that
// is exactly the block-level hook surface of both the traditional Linux
// framework and the split framework (requests added / dispatched /
// completed). Block-level schedulers (CFQ, Block-Deadline) and the block
// halves of split schedulers (AFQ, Split-Deadline, Split-Token) plug in
// here.
package block

import (
	"time"

	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// Class is the I/O class visible at the block level (CFQ's notion).
type Class int

// I/O classes.
const (
	ClassBE   Class = iota // best effort (default)
	ClassIdle              // only served when the disk is otherwise idle
)

// Request is one block-level I/O request.
type Request struct {
	Op     device.Op
	LBA    int64 // in 4 KiB blocks
	Blocks int

	// Causes identifies the processes responsible for this I/O (split
	// framework tagging). Block-only schedulers must not look at it; they
	// see only Submitter/Prio/Class, mirroring what Linux gives them.
	Causes causes.Set
	// Submitter is the process that submitted the request to the block
	// layer (possibly a proxy such as the writeback or journal task).
	Submitter causes.PID
	// Prio and Class are the submitter's I/O priority and class, which is
	// all a block-level scheduler can see.
	Prio  int
	Class Class

	// Sync marks requests some process is actively waiting on (reads and
	// fsync-driven writes).
	Sync bool
	// Journal marks journal-transaction writes.
	Journal bool
	// Barrier marks sync-commit records that must flush the device cache.
	Barrier bool
	// Meta marks file-system metadata I/O.
	Meta bool
	// FileID is the inode number the request belongs to (0 for journal).
	FileID int64
	// Pages is the file pages a data write covers (none for reads, journal
	// I/O and relocations), letting split schedulers revise their memory-level
	// cost estimates per page when the true on-disk cost is known (§3.2).
	Pages device.PageRange
	// TxnID is the journal transaction the request serves: the descriptor
	// and commit record of a committing transaction, plus the ordered-mode
	// data flushes its commit forces (0 otherwise). Schedulers must not use
	// it; the fault plane needs it to tie crash images to transactions.
	TxnID int64

	// Deadline is an absolute deadline, or zero for none (Block-Deadline
	// fills this from per-process settings).
	Deadline sim.Time

	// Req is the trace request ID of the operation this request descends
	// from (0 when tracing is disabled). Schedulers must not use it: it is
	// observability metadata, not scheduling input.
	Req trace.ReqID

	// Queued and Start record when the request entered the block layer and
	// when dispatch began; Service is the device time consumed; QDepth is
	// the queue depth at submission (including this request). They are
	// filled by the layer.
	Queued  sim.Time
	Start   sim.Time
	Service time.Duration
	QDepth  int

	done sim.Completion
}

// Bytes returns the request size in bytes.
func (r *Request) Bytes() int64 { return int64(r.Blocks) * device.BlockSize }

// Done returns the request's completion (valid after Submit).
func (r *Request) Done() *sim.Completion { return &r.done }

// Elevator is the block-level scheduler hook surface. Add is called when a
// request enters the block layer; Next is called by the dispatcher whenever
// the device is free (returning nil leaves the device idle until the next
// Kick, add, or completion); Completed is called when the device finishes a
// request.
type Elevator interface {
	Name() string
	Add(r *Request)
	Next(now sim.Time) *Request
	Completed(r *Request)
}

// Stats aggregates block-layer activity.
type Stats struct {
	Requests    int64
	Dispatched  int64
	BlocksRead  int64
	BlocksWrite int64
	BusyTime    time.Duration
}

// Layer is the block layer: elevator + dispatcher + device.
type Layer struct {
	env   *sim.Env
	disk  device.Disk
	elv   Elevator
	onAdd func(*Request)
	tr    *trace.Tracer
	work  *sim.WaitQueue
	busy  bool
	depth int
	stats Stats
	// QueueDepth>1 is not modeled; the dispatcher issues one request at a
	// time, matching the paper's single-spindle evaluation.

	// Run-to-completion dispatcher state. The dispatcher issues one request
	// at a time, so the in-flight request and the disk's answer for it live
	// in the layer; the two callbacks are allocated once here so the
	// steady-state dispatch loop never allocates.
	inflight     *Request
	inflightSvc  device.Service
	inflightTrcd bool
	completeFn   func()
	resumeFn     func(sig bool)
}

// NewLayer creates a block layer over disk using elv and starts its
// dispatcher, a run-to-completion handler on the event loop.
func NewLayer(env *sim.Env, disk device.Disk, elv Elevator) *Layer {
	l := &Layer{env: env, disk: disk, elv: elv, tr: trace.Nop, work: sim.NewWaitQueue(env)}
	l.completeFn = l.complete
	l.resumeFn = func(sig bool) { l.dispatchStep() }
	// The first dispatch probe is a t=0 startup event scheduled in
	// construction order, which fixes the kernel's seq numbering; the
	// schedule goldens pin it. It parks on l.work.
	env.Schedule(0, l.dispatchStep)
	return l
}

// OnAdd installs fn to observe every request as it enters the layer, after
// the elevator's Add (nil removes it). It is for measurement: schedulers
// see add, dispatch and completion through their Elevator.
func (l *Layer) OnAdd(fn func(*Request)) { l.onAdd = fn }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
func (l *Layer) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	l.tr = tr
}

// QueueDepth returns the number of requests inside the block layer (queued
// or being served).
func (l *Layer) QueueDepth() int { return l.depth }

// Dispatching reports whether a request is in service at the disk.
func (l *Layer) Dispatching() bool { return l.busy }

// Elevator returns the installed elevator.
func (l *Layer) Elevator() Elevator { return l.elv }

// Disk returns the underlying device.
func (l *Layer) Disk() device.Disk { return l.disk }

// Stats returns a snapshot of the layer's counters.
func (l *Layer) Stats() Stats { return l.stats }

// Submit adds a request to the block layer and returns its completion. It
// is the block bucket's profiling probe (the synchronous queue-insert path,
// including the elevator's Add).
func (l *Layer) Submit(r *Request) *sim.Completion {
	perf.Count(perf.BucketBlock)
	if r.Blocks <= 0 {
		r.Blocks = 1
	}
	r.done.Init(l.env)
	r.Queued = l.env.Now()
	l.stats.Requests++
	l.depth++
	r.QDepth = l.depth
	l.elv.Add(r)
	if l.onAdd != nil {
		l.onAdd(r)
	}
	l.Kick()
	return &r.done
}

// traceRequest emits the block- and device-layer spans of one completed
// request: the queue span (submission to dispatch, labeled with the
// elevator), a gc-wait span when the disk reports that part of the service
// was spent behind its garbage collector, and the device service split into
// positioning and transfer. The gc-wait span overlaps the service spans
// (the stall is part of the service) — it is detection metadata for attr,
// not a latency category of its own.
func (l *Layer) traceRequest(r *Request, svc device.Service) {
	flags := requestFlags(r)
	l.tr.Record(trace.Event{
		Layer: trace.LayerBlock, Op: trace.OpQueue, Label: l.elv.Name(),
		Req: r.Req, PID: r.Submitter, Causes: r.Causes, Prio: r.Prio,
		Start: r.Queued, End: r.Start, Depth: int64(r.QDepth),
		Ino: r.FileID, LBA: r.LBA, Blocks: r.Blocks, Flags: flags,
	})
	dev := trace.Event{
		Layer: trace.LayerDevice, Op: trace.OpGCWait, Label: l.disk.Name(),
		Req: r.Req, PID: r.Submitter, Causes: r.Causes, Prio: r.Prio,
		Start: r.Start, End: r.Start.Add(svc.GCStall),
		Ino: r.FileID, LBA: r.LBA, Blocks: r.Blocks, Flags: flags,
	}
	if svc.GCStall > 0 {
		l.tr.Record(dev)
	}
	if svc.Position > 0 {
		dev.Op = trace.OpPosition
		dev.End = dev.Start.Add(svc.Position)
		l.tr.Record(dev)
	}
	dev.Op = trace.OpTransfer
	dev.Start = r.Start.Add(svc.Position)
	dev.End = dev.Start.Add(svc.Transfer)
	l.tr.Record(dev)
}

func requestFlags(r *Request) trace.Flag {
	var f trace.Flag
	if r.Op == device.Read {
		f |= trace.FlagRead
	} else {
		f |= trace.FlagWrite
	}
	if r.Sync {
		f |= trace.FlagSync
	}
	if r.Journal {
		f |= trace.FlagJournal
	}
	if r.Meta {
		f |= trace.FlagMeta
	}
	if r.Barrier {
		f |= trace.FlagBarrier
	}
	return f
}

// Kick wakes the dispatcher; elevators call this after internal timers
// (e.g. CFQ idle-window expiry) make a request eligible.
func (l *Layer) Kick() {
	if !l.busy {
		l.work.Signal()
	}
}

// dispatchStep probes the elevator and, if a request is eligible, starts
// serving it. Every request the module simulates flows through this body;
// it runs to completion on the event loop and must stay allocation-free.
//
//splitlint:hot
func (l *Layer) dispatchStep() {
	// The elevator's pick and the disk model's service-time computation
	// are the sched and device buckets' profiling probes.
	perf.Count(perf.BucketSched)
	r := l.elv.Next(l.env.Now())
	if r == nil {
		l.work.WaitFn(l.resumeFn)
		return
	}
	l.busy = true
	r.Start = l.env.Now()
	l.stats.Dispatched++
	perf.Count(perf.BucketDevice)
	l.inflight = r
	l.inflightSvc = l.disk.Serve(device.Request{
		Op: r.Op, LBA: r.LBA, Blocks: r.Blocks, Now: time.Duration(r.Start), Barrier: r.Barrier,
		Sync: r.Sync, Journal: r.Journal, Meta: r.Meta,
		FileID: r.FileID, TxnID: r.TxnID, Pages: r.Pages,
	})
	l.inflightTrcd = l.tr.Enabled()
	l.env.Schedule(l.inflightSvc.Total, l.completeFn)
}

// complete is the device-completion handler: it retires the in-flight
// request and immediately probes the elevator again, all within one event.
//
//splitlint:hot
func (l *Layer) complete() {
	r, svc := l.inflight, l.inflightSvc
	l.inflight = nil
	r.Service = svc.Total
	l.stats.BusyTime += svc.Total
	if r.Op == device.Read {
		l.stats.BlocksRead += int64(r.Blocks)
	} else {
		l.stats.BlocksWrite += int64(r.Blocks)
	}
	l.busy = false
	l.depth--
	l.elv.Completed(r)
	if l.inflightTrcd {
		l.traceRequest(r, svc)
	}
	r.done.Complete()
	l.dispatchStep()
}

// FIFO is the no-op elevator: requests are dispatched in arrival order with
// no reordering, no idling, and no accounting. It doubles as the
// framework-overhead baseline (Fig 9).
type FIFO struct {
	q []*Request
}

// NewFIFO returns an empty FIFO elevator.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Elevator.
func (f *FIFO) Name() string { return "noop" }

// Add implements Elevator.
func (f *FIFO) Add(r *Request) { f.q = append(f.q, r) }

// Next implements Elevator.
func (f *FIFO) Next(now sim.Time) *Request {
	if len(f.q) == 0 {
		return nil
	}
	r := f.q[0]
	copy(f.q, f.q[1:])
	f.q = f.q[:len(f.q)-1]
	return r
}

// Completed implements Elevator.
func (f *FIFO) Completed(r *Request) {}

// Len returns the number of queued requests.
func (f *FIFO) Len() int { return len(f.q) }
