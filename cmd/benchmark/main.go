// Command benchmark is the simulator's benchmark of record. It regenerates
// the paper's experiments through exp.ByID(...).Run at a fixed -scale 0.1
// and -j 1, one workload per invocation, each rep in a fresh child process
// (a copy of this binary), and prints the end-to-end metrics — or, with
// -trace 1, the per-layer host cost from a profiled rep — as one JSON
// object on the last line of stdout. See README.md.
//
//	benchmark -workload fig11 -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"splitio/internal/perf"
)

const (
	// setupProbes is how many children only start up; setup_s is their
	// median. A start-up takes about 2 ms, so many cost little.
	setupProbes = 25
	// runDeadline bounds a whole invocation; children still running then
	// are killed and the run fails.
	runDeadline = 170 * time.Second
	readyLine   = "ready"
	// calibRefSeconds is what the calibrate binary prints on the reference
	// host: the 2-CPU host record.json's baseline was measured on, when
	// nothing else loads it. Reported times are seconds on that host; the
	// slowdowns a shared host goes through for minutes at a time divide
	// out, as calibrate slows with them.
	calibRefSeconds = 0.35
)

//go:embed record.json
var recordJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := workloadNames()
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "experiment seed (1 while developing a change, 2 held out)")
	seconds := fs.Float64("seconds", 30, "measurement budget: another rep starts only if it is expected to end within it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from one profiled rep")
	child := fs.String("child", "", "run one rep in this process and report it on stdout: run, trace or setup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exps, ok := workloadExperiments(*workload)
	if !ok || fs.NArg() != 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -trace 0 or 1, and no arguments\n", strings.Join(names, ", "))
		return 2
	}

	switch *child {
	case "":
	case "setup":
		fmt.Fprintln(stdout, readyLine)
		return 0
	case "run", "trace":
		res, err := runRep(exps, *seed, *child == "trace", func() { fmt.Fprintln(stdout, readyLine) })
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	default:
		fmt.Fprintf(stderr, "benchmark: unknown -child mode %q\n", *child)
		return 2
	}

	if u := uncovered(); len(u) > 0 {
		fmt.Fprintf(stderr, "benchmark: warning: no workload runs %s\n", strings.Join(u, ", "))
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	p := &parent{ctx: ctx, exe: exe, workload: *workload, seed: *seed, stderr: stderr}
	var metrics []metric
	var runs []childRun
	if *trace == 1 {
		runs, metrics, err = p.traced()
	} else {
		runs, metrics, err = p.untraced(time.Duration(*seconds * float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}

	reps := make([]*repResult, len(runs))
	for i, r := range runs {
		reps[i] = r.rep
	}
	attempted, failed, problems := checkReps(len(exps), reps)
	for _, pr := range problems {
		fmt.Fprintf(stderr, "benchmark: FAILED %s\n", pr)
	}
	fmt.Fprintf(stderr, "host: %s %s/%s cpus=%d gomaxprocs=%d -j %d -scale %g reps=%d seed=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		benchJobs, benchScale, len(runs), *seed)
	reportDigests(stderr, *seed, reps)
	writeMetricsTable(stderr, metrics)

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metricValue{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun is one child process as the parent saw it.
type childRun struct {
	setup  time.Duration // start until the child said it was ready
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
	rep    *repResult    // nil for a setup probe
	// hostFactor converts the rep's host times to reference-host times.
	hostFactor float64
}

type parent struct {
	ctx      context.Context
	exe      string // this binary; calibrate is built next to it
	workload string
	seed     int64
	stderr   io.Writer
}

// command prepares a child process that dies with this one, so none
// outlives a parent killed by its caller.
func (p *parent) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(p.ctx, name, args...)
	cmd.Stderr = p.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// spawn runs one child of this binary in the given mode and waits for it.
func (p *parent) spawn(mode string) (childRun, error) {
	cmd := p.command(p.exe, "-child", mode, "-workload", p.workload,
		"-seed", strconv.FormatInt(p.seed, 10))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var c childRun
	br := bufio.NewReader(out)
	line, readErr := br.ReadString('\n')
	c.setup = time.Since(start)
	if readErr == nil && strings.TrimSpace(line) != readyLine {
		readErr = fmt.Errorf("child printed %q before it was ready", line)
	}
	if readErr == nil && mode != "setup" {
		c.rep = &repResult{}
		readErr = json.NewDecoder(br).Decode(c.rep)
	}
	_, _ = io.Copy(io.Discard, br) // let the child finish writing before Wait
	waitErr := cmd.Wait()
	if err := errors.Join(waitErr, readErr); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", mode, err)
	}
	c.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = ru.Maxrss << 10 // KiB on Linux
	}
	return c, nil
}

// calibrate runs the calibrate binary and returns its time in seconds.
func (p *parent) calibrate() (float64, error) {
	out, err := p.command(filepath.Join(filepath.Dir(p.exe), "calibrate")).Output()
	if err != nil {
		return 0, fmt.Errorf("calibrate: %w", err)
	}
	sec, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || sec <= 0 {
		return 0, fmt.Errorf("calibrate printed %q", out)
	}
	return sec, nil
}

// measure runs one rep child, then calibrates; before is the calibration
// taken just before the rep, and the one taken after is returned for the
// next rep. The rep's host factor compares the reference calibration with
// the mean of the two around it.
func (p *parent) measure(mode string, before float64) (childRun, float64, error) {
	c, err := p.spawn(mode)
	if err != nil {
		return c, 0, err
	}
	after, err := p.calibrate()
	if err != nil {
		return c, 0, err
	}
	c.hostFactor = calibRefSeconds / ((before + after) / 2)
	fmt.Fprintf(p.stderr, "rep %-5s wall %.3fs cpu %.3fs rss %.1fMB setup %.4fs calibration %.4fs/%.4fs host factor %.4f\n",
		mode, float64(c.rep.WallNS)/1e9, c.cpu.Seconds(), float64(c.maxRSS)/(1<<20), c.setup.Seconds(), before, after, c.hostFactor)
	return c, after, nil
}

// untraced measures the end-to-end metrics: setupProbes start-up-only
// children, host-normalized by the calibration just before them, then reps
// until the next one is expected to overrun the budget (always at least
// one).
func (p *parent) untraced(budget time.Duration) ([]childRun, []metric, error) {
	begin := time.Now()
	cal, err := p.calibrate()
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		c, err := p.spawn("setup")
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, c.setup.Seconds()*calibRefSeconds/cal)
	}
	var runs []childRun
	var durations []float64
	for {
		repStart := time.Now()
		c, after, err := p.measure("run", cal)
		if err != nil {
			return nil, nil, err
		}
		cal = after
		runs = append(runs, c)
		durations = append(durations, time.Since(repStart).Seconds())
		next := time.Since(begin) + time.Duration(median(durations)*float64(time.Second))
		if next > budget {
			return runs, endToEndMetrics(runs, setups), nil
		}
	}
}

// endToEndMetrics are the medians over reps of what a user of the
// simulator sees. Times are host-normalized: seconds on the reference host.
func endToEndMetrics(runs []childRun, setups []float64) []metric {
	var wall, cpu, rss []float64
	for _, r := range runs {
		wall = append(wall, r.hostFactor*float64(r.rep.WallNS)/1e9)
		cpu = append(cpu, r.hostFactor*r.cpu.Seconds())
		rss = append(rss, float64(r.maxRSS)/(1<<20))
	}
	return []metric{
		{"wall_s", "s", median(wall)},
		{"cpu_s", "s", median(cpu)},
		{"peak_rss_mb", "MB", median(rss)},
		{"setup_s", "s", median(setups)},
	}
}

// traced runs one untraced rep as the reference for wall time, then one
// profiled rep, and reports the per-layer metrics.
func (p *parent) traced() ([]childRun, []metric, error) {
	cal, err := p.calibrate()
	if err != nil {
		return nil, nil, err
	}
	base, cal, err := p.measure("run", cal)
	if err != nil {
		return nil, nil, err
	}
	tr, _, err := p.measure("trace", cal)
	if err != nil {
		return nil, nil, err
	}
	if tr.rep.Trace == nil {
		return nil, nil, errors.New("trace child reported no trace")
	}
	return []childRun{base, tr}, perLayerMetrics(base, tr), nil
}

// perLayerMetrics turns a profiled rep into the per-layer metrics; base is
// the untraced rep of the same run, for rates and tracing overhead.
func perLayerMetrics(base, tr childRun) []metric {
	t := tr.rep.Trace
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }
	for _, l := range layers {
		add(l+".self_s", "s", float64(t.LayerNS[l])/1e9)
		add(l+".share", "ratio", ratio(float64(t.LayerNS[l]), float64(t.ProfileNS)))
	}
	for _, b := range perf.Buckets() {
		add(b.String()+".calls", "count", float64(t.Calls[b.String()]))
	}
	events := float64(t.Sim.Events)
	baseWall := base.hostFactor * float64(base.rep.WallNS) / 1e9
	trWall := tr.hostFactor * float64(tr.rep.WallNS) / 1e9
	add("sim.events", "count", events)
	add("sim.events_per_s", "1/s", ratio(events, baseWall))
	add("sim.switches_per_event", "ratio", ratio(float64(t.Sim.Switches), events))
	add("sim.heap_max", "count", float64(t.Sim.HeapMax))
	add("sim.envs", "count", float64(t.Sim.Envs))
	add("mem.allocs_per_event", "allocs/event", ratio(float64(t.Mallocs), events))
	add("mem.bytes_per_event", "B/event", ratio(float64(t.AllocBytes), events))
	add("mem.peak_rss_mb", "MB", float64(tr.maxRSS)/(1<<20))
	add("mem.peak_live_heap_mb", "MB", float64(t.PeakLiveHeap)/(1<<20))
	add("gc.cycles", "count", float64(t.GCCycles))
	add("gc.cpu_s", "s", t.GCCPUSeconds)
	add("harness.experiments", "count", float64(len(tr.rep.Experiments)))
	add("harness.cells", "count", float64(tr.rep.Cells))
	add("profile.samples", "count", float64(t.Samples))
	add("profile.total_s", "s", float64(t.ProfileNS)/1e9)
	add("profile.unattributed_s", "s", tr.cpu.Seconds()-float64(t.ProfileNS)/1e9)
	add("profile.overhead", "ratio", ratio(trWall, baseWall)-1)
	return ms
}

// checkReps counts experiments attempted and failed across reps. An
// experiment fails when it panicked, reported violations, or produced a
// digest that differs from its first rep's.
func checkReps(perRep int, reps []*repResult) (attempted, failed int, problems []string) {
	first := map[string]string{}
	for i, r := range reps {
		attempted += perRep
		if len(r.Experiments) != perRep {
			failed += perRep
			problems = append(problems, fmt.Sprintf("rep %d reported %d of %d experiments", i, len(r.Experiments), perRep))
			continue
		}
		for _, e := range r.Experiments {
			want, seen := first[e.ID]
			switch {
			case e.Error != "":
				failed++
				problems = append(problems, fmt.Sprintf("rep %d %s: %s", i, e.ID, e.Error))
			case !seen:
				first[e.ID] = e.Digest
			case e.Digest != want:
				failed++
				problems = append(problems, fmt.Sprintf("rep %d %s: digest %s, first rep %s", i, e.ID, e.Digest, want))
			}
		}
	}
	return attempted, failed, problems
}

// reportDigests compares the first rep's digests with the reference
// digests recorded for this seed. It is informational: a change that is
// meant to move the paper's numbers changes digests.
func reportDigests(w io.Writer, seed int64, reps []*repResult) {
	var rec struct {
		ReferenceDigests map[string]map[string]string `json:"reference_digests"`
	}
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		fmt.Fprintf(w, "digests: record.json: %v\n", err)
		return
	}
	ref, ok := rec.ReferenceDigests[strconv.FormatInt(seed, 10)]
	var differ []string
	for _, e := range reps[0].Experiments {
		fmt.Fprintf(w, "digest %-12s %s\n", e.ID, e.Digest)
		if want := ref[e.ID]; ok && want != e.Digest {
			differ = append(differ, fmt.Sprintf("%s (reference %s)", e.ID, want))
		}
	}
	switch {
	case !ok:
		fmt.Fprintf(w, "digests: no reference recorded for seed %d\n", seed)
	case len(differ) == 0:
		fmt.Fprintf(w, "digests: match the reference for seed %d\n", seed)
	default:
		fmt.Fprintf(w, "digests: differ from the reference for seed %d: %s\n", seed, strings.Join(differ, ", "))
	}
}

// writeMetricsTable prints the metrics for people; layer rows sort by cost.
func writeMetricsTable(w io.Writer, ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si := strings.HasSuffix(sorted[i].name, ".self_s")
		sj := strings.HasSuffix(sorted[j].name, ".self_s")
		if si && sj {
			return sorted[i].value > sorted[j].value
		}
		return si && !sj
	})
	for _, m := range sorted {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0, so a workload without (say) events still
// prints valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
