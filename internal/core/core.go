// Package core implements the split-level scheduling framework — the
// paper's primary contribution. It assembles the simulated machine (CPU,
// disk, block layer, page cache, file system, syscall layer), defines the
// Scheduler plug-in interface whose hooks span the system-call, memory, and
// block levels (paper §4.2, Table 2), and provides the two cost models
// split schedulers combine: a prompt memory-level estimate when buffers are
// dirtied and an accurate block-level revision when requests reach disk
// (paper §3.2).
package core

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/cpusim"
	"splitio/internal/device"
	"splitio/internal/fault"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/metrics"
	"splitio/internal/monitor"
	"splitio/internal/sched"
	"splitio/internal/sim"
	"splitio/internal/ssd"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// The layer DAG keeps fs from importing cache, so fs declares its own
// BlockSize; this compile-time assertion fails (negative constant converted
// to uint) if the two ever diverge.
const _ = uint(fs.BlockSize-cache.PageSize) + uint(cache.PageSize-fs.BlockSize)

// Scheduler is a scheduling plug-in. A scheduler supplies the block-level
// elevator, which sees requests added, dispatched and completed, and in
// Attach may register system-call hooks (vfs.Hooks) and memory hooks
// (cache.MemHooks) on the kernel. Single-level schedulers simply leave the
// other levels untouched.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Elevator returns the block-level half of the scheduler. It is called
	// once, before Attach, so the block layer can be built around it.
	Elevator() block.Elevator
	// Attach wires the scheduler to the assembled kernel.
	Attach(k *Kernel)
}

// Factory builds a scheduler for an environment.
type Factory func(env *sim.Env) Scheduler

// DiskKind selects the device model.
type DiskKind string

// Disk kinds.
const (
	HDD    DiskKind = "hdd"
	SSD    DiskKind = "ssd"    // flat-latency flash model
	FTLSSD DiskKind = "ftlssd" // channel/die + page-mapped FTL + background GC
)

// DiskKinds lists every disk model, for validating outside input.
var DiskKinds = []DiskKind{HDD, SSD, FTLSSD}

// FSKind selects the file-system integration level.
type FSKind string

// File systems.
const (
	Ext4 FSKind = "ext4" // full split integration
	XFS  FSKind = "xfs"  // partial integration (journal untagged)
	COW  FSKind = "cow"  // copy-on-write: remap-on-flush, GC proxy
)

// FSKinds lists every file system, for validating outside input.
var FSKinds = []FSKind{Ext4, XFS, COW}

// Options configures a simulated machine.
type Options struct {
	Seed  int64
	Disk  DiskKind
	FS    FSKind
	Cores int
	// Cache overrides the default cache geometry when non-nil.
	Cache *cache.Config
	// FSConfig overrides the file-system config when non-nil.
	FSConfig *fs.Config
	// SSD overrides the FTL SSD geometry when non-nil (Disk == FTLSSD).
	SSD *ssd.Config
	// Tracer, when non-nil, is installed on every layer so cross-layer
	// request trees are recorded (it must be Enabled by the caller; an
	// enabled tracer shared across kernels interleaves their events).
	// When nil each kernel gets a fresh disabled tracer that can be
	// enabled later via Kernel.Trace.Enable().
	Tracer *trace.Tracer
	// MetricsInterval, when positive, starts a sampler handler that snapshots
	// every registry gauge into a time series at that virtual-time period.
	// The sampler only reads state, so results are unchanged; it is opt-in
	// for its cost.
	MetricsInterval time.Duration
	// Fault, when non-nil, interposes a fault.Device between the block layer
	// and the disk model: the device timing is unchanged, but every media
	// write is recorded in a persistence log and the plan's faults (power
	// cut, torn/lost writes, read errors) are injected. The wrapper is
	// exposed as Kernel.Fault; Kernel.Disk stays the raw model.
	Fault *fault.Plan
	// Monitor, when non-nil, builds the observability plane (SLO engine,
	// introspection sampler, flight recorder), attaches it to the kernel's
	// tracer as a sink (enabling the tracer if the caller has not), watches
	// the scheduler, block dispatcher, and FTL GC state, and starts its
	// virtual-time ticker. Like MetricsInterval, the ticker is a read-only
	// re-arming handler: results are unchanged, and it is opt-in for its
	// cost.
	Monitor *monitor.Config
}

// DefaultOptions returns an 8-core HDD/ext4 machine.
func DefaultOptions() Options {
	return Options{Seed: 1, Disk: HDD, FS: Ext4, Cores: 8}
}

// Kernel is one assembled simulated machine.
type Kernel struct {
	Env   *sim.Env
	CPU   *cpusim.CPU
	Disk  device.Disk
	Block *block.Layer
	Cache *cache.Cache
	FS    *fs.FS
	VFS   *vfs.VFS
	Sched Scheduler

	// Fault is the fault-plane device wrapper, non-nil iff Options.Fault was
	// set. Its Log() feeds the crash checker (internal/crash).
	Fault *fault.Device

	// Trace is the kernel's tracer. It is always non-nil; it records nothing
	// until Enabled (Options.Tracer pre-enabled, or Trace.Enable()).
	Trace *trace.Tracer
	// Metrics is the kernel's gauge/counter registry, pre-populated with the
	// standard per-layer gauges (cache.dirty_pages, block.queue_depth, ...).
	// Sample it on demand, or set Options.MetricsInterval to sample on a
	// virtual-time tick.
	Metrics *metrics.Registry
	// Monitor is the observability plane, non-nil iff Options.Monitor was
	// set.
	Monitor *monitor.Monitor

	// WBCtx and JCtx are the writeback and journal task identities.
	WBCtx *ioctx.Ctx
	JCtx  *ioctx.Ctx
}

// NewKernel assembles a machine running the scheduler built by factory.
func NewKernel(opts Options, factory Factory) *Kernel {
	return NewKernelOn(sim.NewEnv(opts.Seed), opts, factory)
}

// NewKernelOn assembles a machine on an existing environment, so several
// machines can share one virtual clock (distributed experiments, Fig 21).
func NewKernelOn(env *sim.Env, opts Options, factory Factory) *Kernel {
	var disk device.Disk
	switch opts.Disk {
	case SSD:
		disk = device.NewSSD()
	case FTLSSD:
		scfg := ssd.DefaultConfig()
		if opts.SSD != nil {
			scfg = *opts.SSD
		}
		disk = ssd.New(env, scfg)
	default:
		disk = device.NewHDD()
	}
	cores := opts.Cores
	if cores <= 0 {
		cores = 8
	}
	sch := factory(env)
	// The block layer drives the fault wrapper when a plan is set; Kernel.Disk
	// stays the raw model so cost models can type-switch on it.
	blkDisk := disk
	var fd *fault.Device
	if opts.Fault != nil {
		fd = fault.Wrap(disk, opts.Fault)
		blkDisk = fd
	}
	blk := block.NewLayer(env, blkDisk, sch.Elevator())
	wbCtx := &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4}
	jctx := &ioctx.Ctx{PID: 3, Name: "jbd", Prio: 4}
	ccfg := cache.DefaultConfig()
	if opts.Cache != nil {
		ccfg = *opts.Cache
	}
	pc := cache.New(env, ccfg, wbCtx)
	fcfg := fs.Ext4Config()
	switch opts.FS {
	case XFS:
		fcfg = fs.XFSConfig()
	case COW:
		fcfg = fs.COWConfig()
	}
	if opts.FSConfig != nil {
		fcfg = *opts.FSConfig
	}
	filesystem := fs.New(env, fcfg, pc, blk, jctx, wbCtx)
	cpu := cpusim.New(cores)
	v := vfs.New(env, filesystem, cpu)
	tr := opts.Tracer
	if tr == nil {
		tr = trace.New()
	}
	blk.SetTracer(tr)
	if sd, ok := disk.(*ssd.Device); ok {
		// The FTL emits its GC migration/erase spans itself.
		sd.SetTracer(tr)
	}
	pc.SetTracer(tr)
	filesystem.SetTracer(tr)
	v.SetTracer(tr)
	k := &Kernel{
		Env:     env,
		CPU:     cpu,
		Disk:    disk,
		Block:   blk,
		Cache:   pc,
		FS:      filesystem,
		VFS:     v,
		Sched:   sch,
		Fault:   fd,
		Trace:   tr,
		Metrics: metrics.NewRegistry(),
		WBCtx:   wbCtx,
		JCtx:    jctx,
	}
	k.registerGauges()
	if opts.MetricsInterval > 0 {
		k.Metrics.StartSampler(env, opts.MetricsInterval)
	}
	if opts.Monitor != nil {
		k.Monitor = monitor.New(env, *opts.Monitor)
		tr.Enable()
		tr.Attach(k.Monitor)
		if in, ok := sch.(sched.Introspector); ok {
			k.Monitor.Watch(in)
		}
		k.Monitor.Watch(blk)
		if sd, ok := disk.(*ssd.Device); ok {
			k.Monitor.Watch(sd)
		}
		k.Monitor.RegisterMetrics(k.Metrics)
		k.Monitor.Start()
	}
	sch.Attach(k)
	return k
}

// registerGauges populates the kernel registry with the standard per-layer
// gauges every experiment can sample.
func (k *Kernel) registerGauges() {
	r := k.Metrics
	r.Gauge("cache.dirty_pages", func() float64 { return float64(k.Cache.DirtyPagesCount()) })
	r.Gauge("cache.throttled_writers", func() float64 { return float64(k.Cache.ThrottledWriters()) })
	r.Gauge("cache.tag_bytes", func() float64 { return float64(k.Cache.TagBytes()) })
	r.Gauge("cache.hits", func() float64 { return float64(k.Cache.Hits()) })
	r.Gauge("cache.misses", func() float64 { return float64(k.Cache.Misses()) })
	r.Gauge("fs.commits", func() float64 { return float64(k.FS.Commits()) })
	r.Gauge("fs.journal_blocks", func() float64 { return float64(k.FS.JournalBlocksWritten()) })
	r.Gauge("fs.txn_meta_blocks", func() float64 {
		meta, _ := k.FS.RunningTxnInfo()
		return float64(meta)
	})
	r.Gauge("fs.txn_dep_dirty_pages", func() float64 {
		_, dep := k.FS.RunningTxnInfo()
		return float64(dep)
	})
	r.Gauge("block.queue_depth", func() float64 { return float64(k.Block.QueueDepth()) })
	r.Gauge("block.dispatched", func() float64 { return float64(k.Block.Stats().Dispatched) })
	r.Gauge("block.busy_seconds", func() float64 { return k.Block.Stats().BusyTime.Seconds() })
	r.Gauge("sim.events", func() float64 { return float64(k.Env.Stats().Events) })
	r.Gauge("sim.switches", func() float64 { return float64(k.Env.Stats().Switches) })
	r.Gauge("sim.heap_max", func() float64 { return float64(k.Env.Stats().HeapMax) })
	if sd, ok := k.Disk.(*ssd.Device); ok {
		sd.RegisterMetrics(r)
	}
	if k.Fault != nil {
		k.Fault.RegisterMetrics(r)
	}
}

// Spawn registers a process and starts its body as a simulated process.
func (k *Kernel) Spawn(name string, prio int, body func(p *sim.Proc, pr *vfs.Process)) *vfs.Process {
	pr := k.VFS.NewProcess(name, prio)
	k.Env.Go(name, func(p *sim.Proc) { body(p, pr) })
	return pr
}

// Run advances the simulation by d of virtual time.
func (k *Kernel) Run(d time.Duration) {
	k.Env.Run(k.Env.Now().Add(d))
}

// Close terminates all simulated processes.
func (k *Kernel) Close() { k.Env.Close() }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Env.Now() }

// SeqPageCost returns the device time to transfer one page sequentially.
func (k *Kernel) SeqPageCost() time.Duration {
	return time.Duration(float64(device.BlockSize) / k.Disk.SeqBandwidth() * float64(time.Second))
}

// RandPageCost returns the approximate device time for one random-page
// access, the quantity cost models need for randomness penalties.
func (k *Kernel) RandPageCost() time.Duration {
	switch d := k.Disk.(type) {
	case *device.SSD:
		return 130 * time.Microsecond
	case *ssd.Device:
		return d.RandPageCost()
	default:
		return 12 * time.Millisecond
	}
}

// NormalizedBytes converts a completed request's device time into
// sequential-equivalent bytes — the block-level cost revision every split
// scheduler shares (paper §3.2: "accounting normalizes the cost of an I/O
// pattern to the equivalent amount of sequential I/O").
func (k *Kernel) NormalizedBytes(r *block.Request) float64 {
	return r.Service.Seconds() * k.Disk.SeqBandwidth()
}

// WriteEstimator is the memory-level preliminary cost model: when a buffer
// is dirtied, guess its eventual flush cost from the randomness of request
// offsets within the file (paper §5.3). The guess is deliberately
// conservative; the block-level revision corrects it.
type WriteEstimator struct {
	// SeqBytes is the normalized cost charged for a sequential page.
	SeqBytes float64
	// RandBytes is the normalized cost charged for a random page.
	RandBytes float64
	// Window is the index distance treated as sequential.
	Window int64

	lastIdx map[int64]int64
}

// NewWriteEstimator returns an estimator with the given random-page cost in
// normalized bytes.
func NewWriteEstimator(randBytes float64) *WriteEstimator {
	return &WriteEstimator{
		SeqBytes:  cache.PageSize,
		RandBytes: randBytes,
		Window:    64,
		lastIdx:   make(map[int64]int64),
	}
}

// Estimate returns the preliminary normalized cost of dirtying page idx of
// ino and updates the per-file pattern state.
func (e *WriteEstimator) Estimate(ino, idx int64) float64 {
	last, seen := e.lastIdx[ino]
	e.lastIdx[ino] = idx
	if !seen {
		return e.SeqBytes
	}
	d := idx - last
	if d < 0 {
		d = -d
	}
	if d <= e.Window {
		return e.SeqBytes
	}
	return e.RandBytes
}

// Forget clears pattern state for ino (file deleted).
func (e *WriteEstimator) Forget(ino int64) { delete(e.lastIdx, ino) }
