package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// desCorePackages are the single-threaded DES core layers. Everything the
// event loop touches runs one step at a time on one goroutine; concurrency
// primitives inside these packages would reintroduce scheduler-dependent
// interleavings. internal/sim is included like the rest: its processes are
// runtime coroutines (iter.Pull), which switch directly with no go
// statement or channel, so the core has no user of either. The fault
// plane runs inside the event loop (its wrapper sits on the device's
// Serve path), so it is core too, as is the latency attributor: its
// sinks run synchronously inside trace.Record on the event-loop path. The
// crash checker analyses the fault log after the simulation and stays
// outside. The monitor is core for the same reason as attr: it is a trace
// sink running synchronously inside trace.Record, plus a virtual-time
// ticker process on the event loop.
var desCorePackages = []string{"sim", "core", "vfs", "cache", "fs", "block", "device", "sched", "fault", "attr", "monitor"}

func inDESCore(pass *Pass) bool {
	prefix := pass.ModPath + "/internal/"
	rest, ok := strings.CutPrefix(pass.Path, prefix)
	if !ok {
		return false
	}
	for _, p := range desCorePackages {
		if rest == p || strings.HasPrefix(rest, p+"/") {
			return true
		}
	}
	return false
}

// AnalyzerNoGoroutine flags go statements, channel types and operations,
// select statements, and sync/sync/atomic imports inside the DES core.
var AnalyzerNoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid concurrency primitives in the single-threaded DES core",
	Run: func(pass *Pass) {
		if !inDESCore(pass) {
			return
		}
		for _, file := range pass.Files {
			for _, imp := range file.Imports {
				switch importPath(imp) {
				case "sync", "sync/atomic":
					pass.Reportf("", imp.Pos(), "import of %s in the DES core: the simulation is single-threaded, sync primitives hide nondeterminism", importPath(imp))
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf("", n.Pos(), "go statement in the DES core: spawn sim processes with sim.Env.Go instead")
				case *ast.SendStmt:
					pass.Reportf("", n.Pos(), "channel send in the DES core")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						pass.Reportf("", n.Pos(), "channel receive in the DES core")
					}
				case *ast.SelectStmt:
					pass.Reportf("", n.Pos(), "select statement in the DES core")
				case *ast.ChanType:
					pass.Reportf("", n.Pos(), "channel type in the DES core")
				case *ast.RangeStmt:
					if pass.TypesInfo != nil {
						if t := pass.TypesInfo.TypeOf(n.X); t != nil {
							if _, ok := t.Underlying().(*types.Chan); ok {
								pass.Reportf("", n.Pos(), "range over channel in the DES core")
							}
						}
					}
				}
				return true
			})
		}
	},
}
