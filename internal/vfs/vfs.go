// Package vfs is the system-call layer of the simulated stack: it owns the
// process table, charges CPU for syscall paths and memory copies, applies
// dirty-ratio throttling on writes, and exposes the system-call hooks of the
// scheduling frameworks (entry/exit for read, write, fsync, create, mkdir —
// paper Table 2). A scheduler delays a call simply by sleeping in its entry
// hook.
package vfs

import (
	"time"

	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/cpusim"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/metrics"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// Hooks are the system-call-level scheduler notifications. Entry hooks run
// before the call body (and may sleep to delay it); exit hooks run after.
// Any field may be nil. Read hooks exist for the SCS baseline; split
// schedulers leave them nil (reads are scheduled below the cache).
type Hooks struct {
	ReadEntry  func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64)
	ReadExit   func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64, hit bool)
	WriteEntry func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64)
	WriteExit  func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64)
	FsyncEntry func(p *sim.Proc, c *ioctx.Ctx, f *fs.File)
	FsyncExit  func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, took time.Duration)
	CreatEntry func(p *sim.Proc, c *ioctx.Ctx, path string)
	CreatExit  func(p *sim.Proc, c *ioctx.Ctx, path string)
	MkdirEntry func(p *sim.Proc, c *ioctx.Ctx, path string)
	MkdirExit  func(p *sim.Proc, c *ioctx.Ctx, path string)
	// UnlinkEntry/Exit cover unlink, the metadata call the paper lists as
	// straightforward future work (§4.2).
	UnlinkEntry func(p *sim.Proc, c *ioctx.Ctx, path string)
	UnlinkExit  func(p *sim.Proc, c *ioctx.Ctx, path string)
}

// Process is a simulated user process: an I/O identity plus activity
// counters the experiments read.
type Process struct {
	Ctx *ioctx.Ctx

	BytesRead    metrics.Counter
	BytesWritten metrics.Counter
	Fsyncs       metrics.Histogram
	Reads        metrics.Histogram
	Writes       metrics.Histogram
}

// PID returns the process id.
func (pr *Process) PID() causes.PID { return pr.Ctx.PID }

// VFS is the system-call layer.
type VFS struct {
	env   *sim.Env
	fs    *fs.FS
	cpu   *cpusim.CPU
	hooks Hooks
	tr    *trace.Tracer

	nextPID causes.PID
	procs   map[causes.PID]*Process

	// SyscallCPU is the fixed CPU cost of entering a syscall.
	SyscallCPU time.Duration
	// CopyPageCPU is the CPU cost of copying one page to/from user space.
	CopyPageCPU time.Duration
	// ThrottleWrites applies the cache's dirty-ratio throttling inside
	// write (Linux's balance_dirty_pages). Schedulers that take over
	// writeback control may disable it.
	ThrottleWrites bool
}

// New creates the syscall layer. The first user PID is 100 (kernel task
// identities live below that).
func New(env *sim.Env, filesystem *fs.FS, cpu *cpusim.CPU) *VFS {
	return &VFS{
		env:            env,
		fs:             filesystem,
		cpu:            cpu,
		tr:             trace.Nop,
		nextPID:        100,
		procs:          make(map[causes.PID]*Process),
		SyscallCPU:     2 * time.Microsecond,
		CopyPageCPU:    400 * time.Nanosecond,
		ThrottleWrites: true,
	}
}

// SetHooks installs the scheduler's syscall hooks.
func (v *VFS) SetHooks(h Hooks) { v.hooks = h }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
// The syscall layer is where request IDs are born: each traced syscall
// stamps a fresh ID into the caller's ioctx, and every lower layer
// propagates it.
func (v *VFS) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	v.tr = tr
}

// beginSyscall stamps a fresh trace request ID into ctx and returns the
// span's start time. Must be called at syscall entry, before scheduler entry
// hooks, so hook-imposed delays are visible in the trace.
func (v *VFS) beginSyscall(p *sim.Proc, c *ioctx.Ctx) sim.Time {
	c.Req = v.tr.NextReq()
	return p.Now()
}

// endSyscall records the syscall-layer span. It is the vfs profiling
// probe: one count per completed syscall.
func (v *VFS) endSyscall(p *sim.Proc, c *ioctx.Ctx, op string, start sim.Time, ino, bytes int64, flags trace.Flag) {
	perf.Count(perf.BucketVFS)
	v.tr.Record(trace.Event{
		Layer: trace.LayerSyscall, Op: op,
		Req: c.Req, PID: c.PID, Causes: c.Causes(), Prio: c.Prio,
		Start: start, End: p.Now(), Ino: ino, Bytes: bytes, Flags: flags,
	})
}

// FS returns the mounted file system.
func (v *VFS) FS() *fs.FS { return v.fs }

// NewProcess registers a process with the given name and I/O priority.
func (v *VFS) NewProcess(name string, prio int) *Process {
	pid := v.nextPID
	v.nextPID++
	pr := &Process{Ctx: &ioctx.Ctx{PID: pid, Name: name, Prio: prio}}
	pr.BytesRead.Start(v.env.Now())
	pr.BytesWritten.Start(v.env.Now())
	v.procs[pid] = pr
	return pr
}

// Process returns the process with the given pid.
func (v *VFS) Process(pid causes.PID) (*Process, bool) {
	pr, ok := v.procs[pid]
	return pr, ok
}

// Processes returns all registered processes.
func (v *VFS) Processes() []*Process {
	out := make([]*Process, 0, len(v.procs))
	for pid := causes.PID(0); pid < v.nextPID; pid++ {
		if pr, ok := v.procs[pid]; ok {
			out = append(out, pr)
		}
	}
	return out
}

// Open returns the file at path.
func (v *VFS) Open(path string) (*fs.File, error) {
	f, ok := v.fs.Lookup(path)
	if !ok {
		return nil, fs.ErrNotFound
	}
	return f, nil
}

// Create makes a new file via the creat syscall path.
func (v *VFS) Create(p *sim.Proc, pr *Process, path string) (*fs.File, error) {
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.CreatEntry != nil {
		v.hooks.CreatEntry(p, pr.Ctx, path)
	}
	v.cpu.Use(p, v.SyscallCPU)
	f, err := v.fs.Create(p, pr.Ctx, path)
	if v.hooks.CreatExit != nil {
		v.hooks.CreatExit(p, pr.Ctx, path)
	}
	if v.tr.Enabled() {
		var ino int64
		if f != nil {
			ino = f.Ino
		}
		v.endSyscall(p, pr.Ctx, trace.OpCreate, t0, ino, 0, trace.FlagMeta)
	}
	return f, err
}

// Mkdir makes a directory.
func (v *VFS) Mkdir(p *sim.Proc, pr *Process, path string) error {
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.MkdirEntry != nil {
		v.hooks.MkdirEntry(p, pr.Ctx, path)
	}
	v.cpu.Use(p, v.SyscallCPU)
	err := v.fs.Mkdir(p, pr.Ctx, path)
	if v.hooks.MkdirExit != nil {
		v.hooks.MkdirExit(p, pr.Ctx, path)
	}
	if v.tr.Enabled() {
		v.endSyscall(p, pr.Ctx, trace.OpMkdir, t0, 0, 0, trace.FlagMeta)
	}
	return err
}

// Unlink removes a file.
func (v *VFS) Unlink(p *sim.Proc, pr *Process, path string) error {
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.UnlinkEntry != nil {
		v.hooks.UnlinkEntry(p, pr.Ctx, path)
	}
	v.cpu.Use(p, v.SyscallCPU)
	err := v.fs.Unlink(p, pr.Ctx, path)
	if v.hooks.UnlinkExit != nil {
		v.hooks.UnlinkExit(p, pr.Ctx, path)
	}
	if v.tr.Enabled() {
		v.endSyscall(p, pr.Ctx, trace.OpUnlink, t0, 0, 0, trace.FlagMeta)
	}
	return err
}

// Read performs a read syscall: hooks, CPU, then the cache/disk path.
func (v *VFS) Read(p *sim.Proc, pr *Process, f *fs.File, off, n int64) {
	if n <= 0 {
		return
	}
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.ReadEntry != nil {
		v.hooks.ReadEntry(p, pr.Ctx, f, off, n)
	}
	start := p.Now()
	misses0 := v.fs.Cache().Misses()
	v.cpu.Use(p, v.SyscallCPU)
	v.fs.Read(p, pr.Ctx, f, off, n)
	pages := (n + cache.PageSize - 1) / cache.PageSize
	v.cpu.Use(p, time.Duration(pages)*v.CopyPageCPU)
	hit := v.fs.Cache().Misses() == misses0
	pr.BytesRead.Add(n)
	pr.Reads.Add(p.Now().Sub(start))
	if v.hooks.ReadExit != nil {
		v.hooks.ReadExit(p, pr.Ctx, f, off, n, hit)
	}
	if v.tr.Enabled() {
		label := "miss"
		if hit {
			label = "hit"
		}
		v.tr.Record(trace.Event{
			Layer: trace.LayerSyscall, Op: trace.OpRead, Label: label,
			Req: pr.Ctx.Req, PID: pr.Ctx.PID, Causes: pr.Ctx.Causes(),
			Prio:  pr.Ctx.Prio,
			Start: t0, End: p.Now(), Ino: f.Ino, Bytes: n, Flags: trace.FlagRead,
		})
	}
}

// Write performs a write syscall: hooks, CPU, dirty pages, throttling.
func (v *VFS) Write(p *sim.Proc, pr *Process, f *fs.File, off, n int64) {
	if n <= 0 {
		return
	}
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.WriteEntry != nil {
		v.hooks.WriteEntry(p, pr.Ctx, f, off, n)
	}
	start := p.Now()
	v.cpu.Use(p, v.SyscallCPU)
	pages := (n + cache.PageSize - 1) / cache.PageSize
	v.cpu.Use(p, time.Duration(pages)*v.CopyPageCPU)
	v.fs.Write(p, pr.Ctx, f, off, n)
	if v.ThrottleWrites {
		th0 := p.Now()
		v.fs.Cache().Throttle(p)
		if v.tr.Enabled() && p.Now() != th0 {
			v.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpThrottle,
				Req: pr.Ctx.Req, PID: pr.Ctx.PID, Causes: pr.Ctx.Causes(),
				Prio:  pr.Ctx.Prio,
				Start: th0, End: p.Now(), Ino: f.Ino, Flags: trace.FlagWrite,
			})
		}
	}
	pr.BytesWritten.Add(n)
	pr.Writes.Add(p.Now().Sub(start))
	if v.hooks.WriteExit != nil {
		v.hooks.WriteExit(p, pr.Ctx, f, off, n)
	}
	if v.tr.Enabled() {
		v.endSyscall(p, pr.Ctx, trace.OpWrite, t0, f.Ino, n, trace.FlagWrite)
	}
}

// Fsync performs an fsync syscall.
func (v *VFS) Fsync(p *sim.Proc, pr *Process, f *fs.File) {
	t0 := v.beginSyscall(p, pr.Ctx)
	if v.hooks.FsyncEntry != nil {
		v.hooks.FsyncEntry(p, pr.Ctx, f)
	}
	start := p.Now()
	v.cpu.Use(p, v.SyscallCPU)
	v.fs.Fsync(p, pr.Ctx, f)
	took := p.Now().Sub(start)
	pr.Fsyncs.Add(took)
	if v.hooks.FsyncExit != nil {
		v.hooks.FsyncExit(p, pr.Ctx, f, took)
	}
	if v.tr.Enabled() {
		v.endSyscall(p, pr.Ctx, trace.OpFsync, t0, f.Ino, 0, trace.FlagSync|trace.FlagWrite)
	}
}
