// Package analysis is splitlint: a static-analysis suite that enforces the
// simulator's determinism & performance contract. The paper's results depend
// on controlled, repeatable schedules, and the reproduction substitutes a
// deterministic discrete-event simulation for the kernel; these analyzers
// turn the rules that make same-seed runs byte-identical into
// compiler-checked facts rather than conventions.
//
// Per-file, syntactic rules:
//
//   - simclock: no wall-clock reads (time.Now/Since/Sleep/...) — virtual
//     time comes from internal/sim only.
//   - simrand: no global math/rand top-level functions — randomness must
//     flow through the seeded sim RNG.
//   - maporder: no range over a map whose body has order-dependent effects
//     (mutating sim state, appending to slices that are never sorted,
//     emitting trace/metric events) — the classic silent nondeterminism.
//   - nogoroutine: no go statements, channel operations, or sync primitives
//     inside the single-threaded DES core (sim, core, vfs, cache, fs,
//     block, device, sched).
//   - layerdep: imports between the split-level layer packages must flow
//     downward along vfs → cache → fs → block → device, mirroring the
//     paper's hook layering.
//
// Whole-program, call-graph-based rules (see callgraph.go):
//
//   - hotpurity: functions reachable from event-loop entry points (block
//     elevator implementations, callbacks handed to sim.Env.Schedule /
//     ScheduleAt or parked with the sim *Fn waits, //splitlint:hot-marked
//     functions)
//     must not transitively block (channel ops, mutex locks, time.Sleep,
//     syscalls) or spawn goroutines, and //splitlint:hot regions must not
//     allocate.
//   - timetaint: host-time values (time.Now/Since/Until and everything
//     derived from them, e.g. perf.NowNS) must not flow — through
//     assignments, returns, struct fields, or call arguments — into DES
//     decisions (sim.Time values, event scheduling).
//   - floatdet: no floating-point comparisons or stateful accumulation in
//     event-ordering and scheduler-accounting packages, no fusable
//     float multiply-add (FMA contraction differs across architectures),
//     and no non-exactly-rounded math.* calls on sim-decision paths.
//
// Findings are reported as "file:line: [analyzer] message". A finding can be
// suppressed with a directive on the same line or the line directly above:
//
//	//splitlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported, and
// the audit mode (Options.Audit, splitlint -audit) reports directives that
// no longer suppress anything. The suite is stdlib-only (go/ast + go/types)
// and runs over the whole module in one process so `make check` stays fast.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Severity tiers a finding for CI: error findings fail the build (exit 1),
// warn findings are reported but do not affect the exit status.
type Severity string

// Severity tiers.
const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// File is the path of the offending file, relative to the module root.
	File string `json:"file"`
	// Line and Col are 1-based source coordinates.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Analyzer names the rule that fired (simclock, hotpurity, ...).
	Analyzer string `json:"analyzer"`
	// Severity is the finding's tier ("error" or "warn").
	Severity Severity `json:"severity"`
	// Message describes the violation.
	Message string `json:"message"`
}

// String renders the finding in the canonical "file:line: [analyzer] message"
// form used by the splitlint CLI; warn-tier findings carry a "warning:"
// marker so logs stay scannable.
func (f Finding) String() string {
	if f.Severity == SeverityWarn {
		return fmt.Sprintf("%s:%d: [%s] warning: %s", f.File, f.Line, f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Pass carries one package's parsed and type-checked state to a per-package
// analyzer.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path (e.g. "splitio/internal/cache").
	Path string
	// ModPath is the module path from go.mod (e.g. "splitio").
	ModPath string
	Files   []*ast.File
	// TypesInfo may be partially filled when type checking hit errors
	// (analyzers must tolerate nil/invalid types for sub-expressions).
	TypesInfo *types.Info
	Pkg       *types.Package

	report func(analyzer string, pos token.Pos, msg string)
}

// Reportf records a finding for the given analyzer at pos.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	p.report(analyzer, pos, fmt.Sprintf(format, args...))
}

// Module carries the whole type-checked module to a whole-program analyzer.
type Module struct {
	Fset    *token.FileSet
	Root    string
	ModPath string
	// Packages holds every loaded package, sorted by import path.
	Packages []*Package

	report func(pos token.Pos, msg string)
}

// Reportf records a finding for the running module analyzer at pos.
func (m *Module) Reportf(pos token.Pos, format string, args ...any) {
	m.report(pos, fmt.Sprintf(format, args...))
}

// Lookup returns the loaded package with the given module-relative suffix
// (e.g. "internal/sim"), or nil.
func (m *Module) Lookup(rel string) *Package {
	want := m.ModPath + "/" + rel
	for _, pkg := range m.Packages {
		if pkg.ImportPath == want {
			return pkg
		}
	}
	return nil
}

// Analyzer is one determinism rule. Exactly one of Run (per-package) or
// RunModule (whole-program) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Severity is the tier findings default to; the CLI can downgrade an
	// analyzer to warn. Empty means SeverityError.
	Severity Severity
	// Run analyzes one package at a time.
	Run func(p *Pass)
	// RunModule analyzes the whole module at once (call-graph and taint
	// analyses that must see across package boundaries).
	RunModule func(m *Module)
}

// Analyzers returns the full splitlint suite in reporting order: the five
// per-file analyzers, then the three interprocedural ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerSimClock,
		AnalyzerSimRand,
		AnalyzerMapOrder,
		AnalyzerNoGoroutine,
		AnalyzerLayerDep,
		AnalyzerHotPurity,
		AnalyzerTimeTaint,
		AnalyzerFloatDet,
	}
}

// AnalyzerByName returns the analyzer with the given name from Analyzers(),
// or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ignoreDirective is one parsed //splitlint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // line the directive appears on
	analyzers []string
	malformed bool
	// hits counts, per listed analyzer, how many findings the directive
	// suppressed — the input to the stale-ignore audit.
	hits map[string]int
}

const (
	ignorePrefix = "//splitlint:ignore"
	hotPrefix    = "//splitlint:hot"
)

// parseIgnores extracts all splitlint:ignore directives from a file.
// //splitlint:hot is a different directive (a region marker consumed by the
// call-graph builder) and is not an ignore.
func parseIgnores(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	fname := fset.Position(file.Pos()).Filename
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			d := &ignoreDirective{file: fname, line: fset.Position(c.Pos()).Line, hits: map[string]int{}}
			names, reason, _ := strings.Cut(rest, " ")
			if names == "" || strings.TrimSpace(reason) == "" {
				d.malformed = true
			} else {
				for _, n := range strings.Split(names, ",") {
					d.analyzers = append(d.analyzers, strings.TrimSpace(n))
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressor answers "is this finding suppressed?" across the whole module
// and tracks which directives actually suppressed something.
type suppressor struct {
	// byFile maps file path -> line -> directives covering that line.
	byFile     map[string]map[int][]*ignoreDirective
	directives []*ignoreDirective
	malformed  []Finding
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	s := &suppressor{byFile: map[string]map[int][]*ignoreDirective{}}
	for _, f := range files {
		for _, d := range parseIgnores(fset, f) {
			if d.malformed {
				s.malformed = append(s.malformed, Finding{
					File:     d.file, // relativized by the runner
					Line:     d.line,
					Col:      1,
					Analyzer: "splitlint",
					Severity: SeverityError,
					Message:  "malformed ignore directive (want //splitlint:ignore <analyzer> <reason>)",
				})
				continue
			}
			s.directives = append(s.directives, d)
			lines := s.byFile[d.file]
			if lines == nil {
				lines = map[int][]*ignoreDirective{}
				s.byFile[d.file] = lines
			}
			// A directive suppresses findings on its own line and on the
			// line directly below (the standalone-comment-above form).
			for _, ln := range []int{d.line, d.line + 1} {
				lines[ln] = append(lines[ln], d)
			}
		}
	}
	return s
}

func (s *suppressor) suppressed(file string, line int, analyzer string) bool {
	hit := false
	for _, d := range s.byFile[file][line] {
		for _, a := range d.analyzers {
			if a == analyzer {
				d.hits[analyzer]++
				hit = true
			}
		}
	}
	return hit
}

// stale returns one audit finding per directive analyzer that suppressed
// nothing: stale ignores rot the contract, silently allowlisting lines that
// stopped needing it (or never did).
func (s *suppressor) stale() []Finding {
	var out []Finding
	for _, d := range s.directives {
		for _, a := range d.analyzers {
			if d.hits[a] == 0 {
				out = append(out, Finding{
					File:     d.file,
					Line:     d.line,
					Col:      1,
					Analyzer: "audit",
					Severity: SeverityError,
					Message:  fmt.Sprintf("stale ignore: the directive suppresses no %s finding on this or the next line; delete it or the analyzer name", a),
				})
			}
		}
	}
	return out
}

// Options tunes a Run.
type Options struct {
	// Audit appends stale-ignore findings: //splitlint:ignore directives
	// listing an analyzer that suppressed nothing. Only meaningful when the
	// full analyzer suite runs (a directive for a disabled analyzer would
	// otherwise read as stale).
	Audit bool
}

// Run loads every package under root (a module root containing go.mod) and
// applies the analyzers, returning findings sorted by file, line, analyzer.
func Run(root string, analyzers []*Analyzer) ([]Finding, error) {
	return RunOpts(root, analyzers, Options{})
}

// RunOpts is Run with Options.
func RunOpts(root string, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}

	var raw []Finding
	report := func(analyzer string, sev Severity, pos token.Pos, msg string) {
		if sev == "" {
			sev = SeverityError
		}
		p := loader.Fset.Position(pos)
		raw = append(raw, Finding{
			File:     p.Filename,
			Line:     p.Line,
			Col:      p.Column,
			Analyzer: analyzer,
			Severity: sev,
			Message:  msg,
		})
	}

	// Per-package analyzers.
	for _, pkg := range pkgs {
		pass := &Pass{
			Fset:      loader.Fset,
			Path:      pkg.ImportPath,
			ModPath:   loader.ModPath,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
			Pkg:       pkg.Types,
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a := a
			pass.report = func(analyzer string, pos token.Pos, msg string) {
				if analyzer == "" {
					analyzer = a.Name
				}
				report(analyzer, a.Severity, pos, msg)
			}
			a.Run(pass)
		}
	}

	// Whole-program analyzers.
	mod := &Module{
		Fset:     loader.Fset,
		Root:     loader.Root,
		ModPath:  loader.ModPath,
		Packages: pkgs,
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a := a
		mod.report = func(pos token.Pos, msg string) {
			report(a.Name, a.Severity, pos, msg)
		}
		a.RunModule(mod)
	}

	// Suppression is module-wide: directives live in the file they govern,
	// wherever the reporting analyzer ran from.
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	sup := newSuppressor(loader.Fset, allFiles)
	raw = append(raw, sup.malformed...)

	var out []Finding
	for _, f := range raw {
		if sup.suppressed(f.File, f.Line, f.Analyzer) {
			continue
		}
		out = append(out, f)
	}
	if opts.Audit {
		out = append(out, sup.stale()...)
	}
	for i := range out {
		if rel, err := filepath.Rel(loader.Root, out[i].File); err == nil {
			out[i].File = filepath.ToSlash(rel)
		}
	}
	sortFindings(out)
	return dedup(out), nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedup drops exact-duplicate findings from a sorted slice.
func dedup(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// CountBySeverity returns how many findings are error- and warn-tier.
func CountBySeverity(fs []Finding) (errors, warns int) {
	for _, f := range fs {
		if f.Severity == SeverityWarn {
			warns++
		} else {
			errors++
		}
	}
	return errors, warns
}

// WriteFindings renders findings to w, one per line in the canonical text
// form, or as a JSON array when asJSON is set. The JSON form is a stable
// machine-readable contract: an array (never null) of objects with file,
// line, col, analyzer, severity, and message fields.
func WriteFindings(w io.Writer, findings []Finding, asJSON bool) error {
	if asJSON {
		if findings == nil {
			findings = []Finding{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(findings)
	}
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}
