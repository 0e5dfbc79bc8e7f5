// Package splitio is a discrete-event simulated reproduction of
// "Split-Level I/O Scheduling" (SOSP 2015): a full storage stack — page
// cache, journaling file systems, block layer, disk models — with a
// scheduling framework whose hooks span the system-call, memory, and block
// levels, plus the paper's schedulers (AFQ, Split-Deadline, Split-Token)
// and the baselines they are compared against (CFQ, Block-Deadline,
// SCS-Token).
//
// A Machine is one simulated computer. Spawn processes with workload
// bodies, run the virtual clock, and read per-process metrics:
//
//	m := splitio.New(splitio.WithScheduler("split-token"))
//	defer m.Close()
//	f := m.CreateContiguousFile("/data", 1<<30)
//	p := m.Spawn("reader", splitio.ProcOpts{}, func(t *splitio.Task) {
//		for {
//			t.Read(f, 0, 1<<20)
//		}
//	})
//	m.Run(10 * time.Second) // virtual seconds
//	fmt.Println(p.ReadMBps())
package splitio

import (
	"fmt"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/exp"
	"splitio/internal/fs"
	"splitio/internal/sched/scstoken"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// Schedulers returns the available scheduler names, sorted.
func Schedulers() []string { return exp.SchedulerNames() }

// Option configures a Machine.
type Option func(*config)

type config struct {
	sched string
	opts  core.Options
	ramMB int64
}

// WithScheduler selects the I/O scheduler by name (see Schedulers).
func WithScheduler(name string) Option { return func(c *config) { c.sched = name } }

// WithDisk selects "hdd" (default), "ssd" (flat-latency), or "ftlssd"
// (channel/die-parallel FTL SSD with background garbage collection).
func WithDisk(kind string) Option {
	return func(c *config) { c.opts.Disk = core.DiskKind(kind) }
}

// WithFS selects "ext4" (default, full split integration), "xfs"
// (partial integration), or "cow" (copy-on-write with a GC proxy).
func WithFS(kind string) Option {
	return func(c *config) { c.opts.FS = core.FSKind(kind) }
}

// WithSeed sets the deterministic random seed.
func WithSeed(seed int64) Option { return func(c *config) { c.opts.Seed = seed } }

// WithCores sets the CPU core count.
func WithCores(n int) Option { return func(c *config) { c.opts.Cores = n } }

// WithRAMMB sets the page-cache size in MiB (default 256 in this API; large
// scans should miss).
func WithRAMMB(mb int64) Option { return func(c *config) { c.ramMB = mb } }

// Machine is one simulated computer running a chosen scheduler.
type Machine struct {
	k *core.Kernel
}

// New builds a machine. Unknown scheduler names panic; use NewMachine for
// an error-returning variant.
func New(opts ...Option) *Machine {
	m, err := NewMachine(opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMachine builds a machine, reporting unknown scheduler names as errors.
func NewMachine(opts ...Option) (*Machine, error) {
	cfg := &config{sched: "noop", opts: core.DefaultOptions(), ramMB: 256}
	for _, o := range opts {
		o(cfg)
	}
	factory, ok := exp.SchedulerFactory(cfg.sched)
	if !ok {
		return nil, fmt.Errorf("splitio: unknown scheduler %q (have %v)", cfg.sched, Schedulers())
	}
	cc := cache.DefaultConfig()
	cc.TotalPages = cfg.ramMB << 20 / cache.PageSize
	cfg.opts.Cache = &cc
	return &Machine{k: core.NewKernel(cfg.opts, factory)}, nil
}

// SchedulerName returns the running scheduler's name.
func (m *Machine) SchedulerName() string { return m.k.Sched.Name() }

// FSName returns the mounted file system's name.
func (m *Machine) FSName() string { return m.k.FS.Name() }

// Kernel exposes the underlying kernel for advanced use (experiments,
// benchmarks). The returned value is module-internal machinery; examples
// should not need it.
func (m *Machine) Kernel() *core.Kernel { return m.k }

// Run advances the simulation by d of virtual time.
func (m *Machine) Run(d time.Duration) { m.k.Run(d) }

// Now returns elapsed virtual time.
func (m *Machine) Now() time.Duration { return time.Duration(m.k.Now()) }

// Close terminates all simulated processes.
func (m *Machine) Close() { m.k.Close() }

// SetTokenLimit configures a token-bucket account (rate and burst in
// normalized bytes/second and bytes). It errors unless the machine runs a
// token scheduler ("split-token" or "scs-token").
func (m *Machine) SetTokenLimit(account string, rate, burst float64) error {
	switch s := m.k.Sched.(type) {
	case *stoken.Sched:
		s.SetLimit(account, rate, burst)
	case *scstoken.Sched:
		s.SetLimit(account, rate, burst)
	default:
		return fmt.Errorf("splitio: scheduler %q has no token accounts", m.SchedulerName())
	}
	return nil
}

// File is a handle to a simulated file.
type File struct {
	f *fs.File
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.f.Size() }

// Path returns the file's path.
func (f *File) Path() string { return f.f.Path }

// CreateContiguousFile makes a preexisting file of the given size with a
// contiguous on-disk layout (setup helper; no journal traffic).
func (m *Machine) CreateContiguousFile(path string, size int64) *File {
	return &File{f: m.k.FS.MkFileContiguous(path, size)}
}

// ProcOpts configure a spawned process.
type ProcOpts struct {
	// Prio is the I/O priority, 0 (highest) to 7 (lowest). Default 4.
	Prio int
	// Idle marks the process as idle I/O class.
	Idle bool
	// Account bills the process's I/O to a token account.
	Account string
	// ReadDeadline, WriteDeadline, FsyncDeadline are per-process deadline
	// settings (deadline schedulers).
	ReadDeadline  time.Duration
	WriteDeadline time.Duration
	FsyncDeadline time.Duration
	// SetPrio reports whether Prio is explicit (zero value means prio 4).
	SetPrio bool
}

// Process is a spawned simulated process with activity counters.
type Process struct {
	pr *vfs.Process
	m  *Machine
}

// ReadMBps returns the process's read throughput since the last ResetStats
// (or spawn) in MiB/s of virtual time.
func (p *Process) ReadMBps() float64 {
	return p.pr.BytesRead.MBps(p.m.k.Now())
}

// WriteMBps returns write throughput in MiB/s.
func (p *Process) WriteMBps() float64 {
	return p.pr.BytesWritten.MBps(p.m.k.Now())
}

// MBps returns total throughput in MiB/s.
func (p *Process) MBps() float64 { return p.ReadMBps() + p.WriteMBps() }

// PID returns the process's simulated PID (user processes count up from
// 100; lower PIDs are kernel tasks).
func (p *Process) PID() int { return int(p.pr.Ctx.PID) }

// BytesRead and BytesWritten return totals since the last reset.
func (p *Process) BytesRead() int64    { return p.pr.BytesRead.Total() }
func (p *Process) BytesWritten() int64 { return p.pr.BytesWritten.Total() }

// Fsyncs returns the number of completed fsyncs.
func (p *Process) Fsyncs() int { return p.pr.Fsyncs.Count() }

// FsyncPercentile returns the q-th percentile (0 < q <= 100) fsync
// latency. Fsync latencies go into a fixed-bin log histogram (8 sub-bins
// per power-of-two octave), so the result is the upper bound of the bin
// holding the nearest-rank sample, clamped to the slowest fsync: never
// below the exact value and at most 12.5% above it.
func (p *Process) FsyncPercentile(q float64) time.Duration {
	return p.pr.Fsyncs.Percentile(q)
}

// ResetStats restarts the measurement window now.
func (p *Process) ResetStats() {
	now := p.m.k.Now()
	p.pr.BytesRead.Reset(now)
	p.pr.BytesWritten.Reset(now)
}

// Task is the handle a process body uses to perform I/O and sleep. All
// calls block in virtual time according to the stack and scheduler.
type Task struct {
	m  *Machine
	p  *sim.Proc
	pr *vfs.Process
}

// Spawn starts a process running body.
func (m *Machine) Spawn(name string, opts ProcOpts, body func(t *Task)) *Process {
	prio := opts.Prio
	if prio == 0 && !opts.SetPrio {
		prio = 4
	}
	pr := m.k.VFS.NewProcess(name, prio)
	pr.Ctx.Account = opts.Account
	if opts.Idle {
		pr.Ctx.Class = block.ClassIdle
	}
	pr.Ctx.ReadDeadline = opts.ReadDeadline
	pr.Ctx.WriteDeadline = opts.WriteDeadline
	pr.Ctx.FsyncDeadline = opts.FsyncDeadline
	m.k.Env.Go(name, func(p *sim.Proc) {
		body(&Task{m: m, p: p, pr: pr})
	})
	return &Process{pr: pr, m: m}
}

// Create makes a new file through the creat syscall path.
func (t *Task) Create(path string) (*File, error) {
	f, err := t.m.k.VFS.Create(t.p, t.pr, path)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Mkdir makes a directory.
func (t *Task) Mkdir(path string) error {
	return t.m.k.VFS.Mkdir(t.p, t.pr, path)
}

// Open returns the file at path.
func (t *Task) Open(path string) (*File, error) {
	f, err := t.m.k.VFS.Open(path)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Unlink removes a file.
func (t *Task) Unlink(path string) error {
	return t.m.k.VFS.Unlink(t.p, t.pr, path)
}

// Read reads n bytes at off.
func (t *Task) Read(f *File, off, n int64) {
	t.m.k.VFS.Read(t.p, t.pr, f.f, off, n)
}

// Write writes n bytes at off (buffered; becomes durable via Fsync or
// background writeback).
func (t *Task) Write(f *File, off, n int64) {
	t.m.k.VFS.Write(t.p, t.pr, f.f, off, n)
}

// Fsync flushes f durably.
func (t *Task) Fsync(f *File) {
	t.m.k.VFS.Fsync(t.p, t.pr, f.f)
}

// Sleep suspends the process for d of virtual time.
func (t *Task) Sleep(d time.Duration) { t.p.Sleep(d) }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return time.Duration(t.p.Now()) }

// Spin consumes CPU for d (for CPU-interference workloads).
func (t *Task) Spin(d time.Duration) { t.m.k.CPU.Use(t.p, d) }

// Rand63n returns a deterministic random int64 in [0, n).
func (t *Task) Rand63n(n int64) int64 { return t.m.k.Env.Rand().Int63n(n) }
