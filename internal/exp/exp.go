// Package exp regenerates every table and figure of the paper's evaluation
// as text tables: the motivation experiments (Figs 1, 3, 5, 6), framework
// overheads (Figs 9, 10), the scheduler case studies (Figs 11-17), the
// application studies (Figs 18-21), and Tables 1-3. Each experiment returns
// a Table with formatted rows plus a Metrics map holding the headline
// numbers benchmarks report and tests assert.
package exp

import (
	"fmt"
	"sort"
	"time"

	"splitio/internal/attr"
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/metrics"
	"splitio/internal/monitor"
	"splitio/internal/sched/afq"
	"splitio/internal/sched/bdeadline"
	"splitio/internal/sched/cfq"
	"splitio/internal/sched/gcafq"
	"splitio/internal/sched/noop"
	"splitio/internal/sched/scstoken"
	"splitio/internal/sched/sdeadline"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
	"splitio/internal/sweep"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// Table is one regenerated figure or table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
	// Series holds optional time series for timeline figures (Fig 1).
	Series []SeriesRow
	// Metrics holds the headline numbers (for benchmarks and tests).
	Metrics map[string]float64
}

// SeriesRow is one labeled time series sampled at a fixed step.
type SeriesRow struct {
	Label  string
	Step   time.Duration
	Values []float64
}

// Options control experiment scale.
type Options struct {
	// Scale multiplies measurement windows (1.0 = full scale; benchmarks
	// use less).
	Scale float64
	// Seed is the deterministic random seed.
	Seed int64
	// Tracer, when non-nil, is installed on every kernel the experiment
	// builds, so one run yields a cross-layer trace (splitbench -trace).
	Tracer *trace.Tracer
	// Metrics, when non-nil, collects each kernel's gauge registry so the
	// caller can print per-machine stats after the run (splitbench -stats).
	Metrics *StatsCollector
	// Monitor, when non-nil, attaches an observability plane (SLO engine +
	// flight recorder, internal/monitor) to every kernel the experiment
	// builds and collects the monitors per machine (splitbench -slo).
	Monitor *MonitorCollector
	// Device overrides every kernel's disk model ("hdd", "ssd", "ftlssd")
	// when non-empty (splitbench -device). Experiments that pin their own
	// disk ignore it: fig9 (SSD), fig12 (its disk axis), fig19 (SSD),
	// gcsweep (an aged FTL) and crashsweep (its disk axis).
	Device string
	// Runner, when non-nil, fans every simulation an experiment runs (each
	// is one cell, see runCells) across a host-side worker pool (splitbench
	// -j). Nil runs cells inline. Output is byte-identical either way:
	// results merge in cell order. Ignored (forced inline) when Tracer,
	// Metrics or Monitor is set, since those observe every kernel of the run.
	Runner *sweep.Runner
}

// StatsCollector gathers the metrics registries of every kernel an
// experiment run creates, labeled by scheduler name and creation order.
// Collecting stats starts a read-only sampler handler on each kernel: it
// leaves the run's results unchanged, and stats are opt-in only for the
// sampling cost.
type StatsCollector struct {
	// Interval is the virtual-time gauge sampling period (default 100ms).
	Interval time.Duration
	Machines []MachineStats
}

// MachineStats is one kernel's registry with a human-readable label.
type MachineStats struct {
	Label    string
	Registry *metrics.Registry
}

// Add registers a machine's registry under label.
func (sc *StatsCollector) Add(label string, r *metrics.Registry) {
	sc.Machines = append(sc.Machines, MachineStats{Label: label, Registry: r})
}

// MonitorCollector gathers the observability planes of every kernel an
// experiment run creates, labeled like StatsCollector machines. Monitoring
// starts a read-only virtual-time ticker handler on each kernel: it leaves
// the run's results unchanged, and is opt-in, like -stats, for its cost.
type MonitorCollector struct {
	// Window is the SLO window / sampling period (default 500ms).
	Window time.Duration
	// Rules are evaluated on every machine each window.
	Rules    []monitor.Rule
	Machines []MachineMonitor
}

// MachineMonitor is one kernel's monitor with a human-readable label.
type MachineMonitor struct {
	Label string
	Mon   *monitor.Monitor
}

// Add registers a machine's monitor under label.
func (mc *MonitorCollector) Add(label string, m *monitor.Monitor) {
	mc.Machines = append(mc.Machines, MachineMonitor{Label: label, Mon: m})
}

func (o Options) dur(d time.Duration) time.Duration {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	scaled := time.Duration(float64(d) * o.Scale)
	if scaled < time.Second {
		scaled = time.Second
	}
	return scaled
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *Table
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"fig1", "Write burst vs idle class", Fig1},
	{"fig3", "CFQ buffered-write (un)fairness", Fig3},
	{"fig5", "Block-Deadline latency entanglement", Fig5},
	{"fig6", "SCS-Token isolation failure", Fig6},
	{"fig9", "Framework time overhead", Fig9},
	{"fig10", "Tag memory overhead", Fig10},
	{"fig11", "AFQ vs CFQ priorities", Fig11},
	{"fig12", "Fsync latency isolation", Fig12},
	{"fig13", "Split-Token isolation (ext4)", Fig13},
	{"fig14", "Split-Token vs SCS-Token", Fig14},
	{"fig15", "Split-Token scalability", Fig15},
	{"fig16", "Split-Token isolation (XFS)", Fig16},
	{"fig17", "Metadata workloads: ext4 vs XFS", Fig17},
	{"fig18", "SQLite transaction tails", Fig18},
	{"fig19", "PostgreSQL fsync freeze", Fig19},
	{"fig20", "QEMU isolation", Fig20},
	{"fig21", "HDFS distributed isolation", Fig21},
	{"table1", "Framework properties", Table1},
	{"table2", "Split hooks", Table2},
	{"table3", "Deadline settings", Table3},
	{"crashsweep", "Crash-consistency sweep (fault plane)", CrashSweep},
	{"inversion", "Latency attribution and inversion detection", InversionExp},
	{"gcsweep", "GC-induced inversions on an aged FTL SSD", GCSweep},
	{"slo", "Windowed SLO detection and flight recorder", SLOExp},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// factories is the one scheduler registry: experiments, the CLI and the
// splitio facade all look scheduler names up here.
var factories = map[string]core.Factory{
	"noop":           noop.Factory,
	"cfq":            cfq.Factory,
	"block-deadline": bdeadline.Factory,
	"scs-token":      scstoken.Factory,
	"afq":            afq.Factory,
	"gc-afq":         gcafq.Factory,
	"split-deadline": sdeadline.Factory,
	"split-pdflush":  sdeadline.PdflushFactory,
	"split-token":    stoken.Factory,
}

// SchedulerNames lists every registered scheduler factory, sorted.
func SchedulerNames() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// KnownScheduler reports whether name has a registered factory.
func KnownScheduler(name string) bool {
	_, ok := factories[name]
	return ok
}

// SchedulerFactory returns the factory registered under name.
func SchedulerFactory(name string) (core.Factory, bool) {
	f, ok := factories[name]
	return f, ok
}

// newKernel builds an experiment machine: 256 MiB cache so multi-GiB scans
// miss, HDD and ext4 unless mut overrides.
func newKernel(sched string, o Options, mut func(*core.Options)) *core.Kernel {
	return newKernelOf(sched, factories[sched], o, mut)
}

// newKernelOf is newKernel with the scheduler built by factory: a variant,
// configured before Attach, of the scheduler registered under sched.
func newKernelOf(sched string, factory core.Factory, o Options, mut func(*core.Options)) *core.Kernel {
	opts := o.kernelOptions()
	if mut != nil {
		mut(&opts)
	}
	k := core.NewKernelOn(sim.NewEnv(opts.Seed), opts, factory)
	o.register(k, sched)
	return k
}

// limit caps account at rate normalized bytes/s, with a burst of one
// second's worth, on k's token scheduler; other schedulers have no
// accounts and ignore it.
func limit(k *core.Kernel, account string, rate float64) {
	if s, ok := k.Sched.(interface {
		SetLimit(string, float64, float64)
	}); ok {
		s.SetLimit(account, rate, rate)
	}
}

// kernelOptions returns the options every experiment machine starts from:
// o's seed, a 256 MiB page cache, the -device disk model, and o's
// observability (the shared -trace tracer, the -stats sampler and the -slo
// monitor).
func (o Options) kernelOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Seed = o.Seed
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cc := cache.DefaultConfig()
	cc.TotalPages = 256 << 20 / cache.PageSize
	opts.Cache = &cc
	if o.Device != "" {
		opts.Disk = core.DiskKind(o.Device)
	}
	opts.Tracer = o.Tracer
	if o.Metrics != nil {
		opts.MetricsInterval = o.Metrics.Interval
		if opts.MetricsInterval <= 0 {
			opts.MetricsInterval = 100 * time.Millisecond
		}
	}
	if o.Monitor != nil {
		opts.Monitor = &monitor.Config{Window: o.Monitor.Window, Rules: o.Monitor.Rules}
	}
	return opts
}

// register hands a kernel built with kernelOptions to o's collectors,
// labeled by scheduler name and creation order.
func (o Options) register(k *core.Kernel, sched string) {
	if o.Monitor != nil && k.Monitor != nil {
		// Feed the attribution stream into the flight recorder: a new
		// inversion at any tick trips a post-mortem bundle.
		a := attr.New()
		k.Trace.Attach(a)
		k.Monitor.WatchAttr(a)
		o.Monitor.Add(fmt.Sprintf("%s#%d", sched, len(o.Monitor.Machines)), k.Monitor)
	}
	if o.Metrics != nil {
		o.Metrics.Add(fmt.Sprintf("%s#%d", sched, len(o.Metrics.Machines)), k.Metrics)
		if o.Tracer == nil {
			// Give -stats per-layer latency attribution: run the span stream
			// through an online Attribution sink and publish its histograms
			// in this kernel's registry. Skipped when the caller shares one
			// -trace tracer across kernels: that tracer's stream interleaves
			// machines.
			k.Trace.Enable()
			a := attr.New()
			k.Trace.Attach(a)
			a.RegisterMetrics(k.Metrics)
		}
	}
}

// measure resets the processes' counters, runs the kernel for d, and
// returns each process's MB/s.
func measure(k *core.Kernel, d time.Duration, procs ...*vfs.Process) []float64 {
	start := k.Now()
	for _, pr := range procs {
		pr.BytesRead.Reset(start)
		pr.BytesWritten.Reset(start)
	}
	k.Run(d)
	now := k.Now()
	out := make([]float64, len(procs))
	for i, pr := range procs {
		out[i] = pr.BytesRead.MBps(now) + pr.BytesWritten.MBps(now)
	}
	return out
}

func mbps(v float64) string { return fmt.Sprintf("%.1f", v) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
