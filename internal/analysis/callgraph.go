package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a whole-module call graph over the loader's type-checked
// packages. It is the substrate for the interprocedural analyzers
// (hotpurity, timetaint): nodes are function bodies (named functions,
// methods, and function literals — literals are separate nodes, NOT merged
// into their enclosing function, because a closure handed to the event loop
// runs in a different context than the code that created it), edges are
// calls. Resolution is conservative:
//
//   - static calls (package functions, methods on concrete receivers) link
//     directly;
//   - calls through a module-defined interface fan out to the matching
//     method of every module type that implements the interface;
//   - calls through plain function values are unresolvable and produce no
//     edge — but function values that are *registered* with the event loop
//     (sim.Env.Schedule / ScheduleAt and the *Fn waits) are
//     recognized at the registration site and marked as event-handler
//     roots, which is how hot-path analysis regains the edges that matter;
//   - defer runs the call on the same goroutine and is treated as a call.
//
// While walking bodies the builder also records the operations the hot-path
// analyzers care about (goroutine spawns, channel operations, blocking
// stdlib calls, allocations) so each analyzer is a pure graph traversal.

// opKind classifies an operation recorded in a function body.
type opKind int

const (
	opGo        opKind = iota // go statement
	opChanOp                  // channel send/recv/select/range-over-channel
	opBlockCall               // call to a known blocking function (mutex, wait, sleep)
	opHostCall                // call into a host-state package (os, syscall, net)
	opAlloc                   // heap allocation (only reported inside //splitlint:hot)
)

// funcOp is one recorded operation at a source position.
type funcOp struct {
	kind   opKind
	pos    token.Pos
	detail string // human-readable, e.g. "channel send" or "sync.(*Mutex).Lock"
}

// cgNode is one function body in the call graph.
type cgNode struct {
	// obj is the defining object for named functions and methods; nil for
	// function literals.
	obj *types.Func
	pkg *Package
	// name is the stable display name, module-relative:
	// "internal/sim.NewEnv", "(*internal/block.Layer).dispatcher", or
	// "(*internal/block.Layer).dispatcher$1" for a literal.
	name string
	pos  token.Pos

	// hot marks a //splitlint:hot function: a hot-path root whose body
	// (including nested literals) must also be allocation-free.
	hot bool
	// handler marks a function registered as an event-loop callback.
	handler bool
	// enclosing is the lexically containing node for function literals.
	enclosing *cgNode

	ops   []funcOp
	calls []cgEdge
}

// cgEdge is one resolved call site.
type cgEdge struct {
	to  *cgNode
	pos token.Pos
	// via notes non-static resolution, e.g. "interface block.Elevator.Next".
	via string
}

// callGraph is the whole-module call graph.
type callGraph struct {
	module *Module
	// funcs indexes named functions and methods by their defining object.
	funcs map[*types.Func]*cgNode
	// lits indexes function-literal nodes by their AST node.
	lits map[*ast.FuncLit]*cgNode
	// nodes holds every node in deterministic (position) order.
	nodes []*cgNode
}

// buildCallGraph constructs the call graph for the module.
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{
		module: m,
		funcs:  map[*types.Func]*cgNode{},
		lits:   map[*ast.FuncLit]*cgNode{},
	}
	b := &cgBuilder{g: g, m: m}
	b.collectInterfaces()
	// Pass 1: a node per named function/method, so edges can link forward.
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b.declNode(pkg, fd)
			}
		}
	}
	// Pass 2: walk bodies — ops, edges, literal sub-nodes, registrations.
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				def, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if def == nil {
					continue
				}
				b.walkBody(g.funcs[def], pkg, fd.Body)
			}
		}
	}
	for _, ph := range b.pendingHandlers {
		b.markHandler(ph.pkg, ph.arg)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].pos < g.nodes[j].pos })
	return g
}

type cgBuilder struct {
	g *callGraph
	m *Module
	// ifaceMethods maps a module interface method (the *types.Func declared
	// in the interface) to the concrete module methods that may run when it
	// is invoked dynamically.
	ifaceMethods map[*types.Func][]*types.Func
	// pendingHandlers holds callback arguments of event-loop registration
	// calls, resolved to nodes after every body has been walked.
	pendingHandlers []pendingHandler
}

type pendingHandler struct {
	pkg *Package
	arg ast.Expr
}

// displayName renders a function object module-relative for findings.
func displayName(modPath string, fn *types.Func) string {
	name := fn.FullName()
	return strings.ReplaceAll(name, modPath+"/", "")
}

// declNode creates (or returns) the node for a named function declaration.
func (b *cgBuilder) declNode(pkg *Package, fd *ast.FuncDecl) *cgNode {
	def, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if def == nil {
		return nil
	}
	if n, ok := b.g.funcs[def]; ok {
		return n
	}
	n := &cgNode{
		obj:  def,
		pkg:  pkg,
		name: displayName(b.m.ModPath, def),
		pos:  fd.Pos(),
		hot:  hasHotDirective(fd.Doc),
	}
	b.g.funcs[def] = n
	b.g.nodes = append(b.g.nodes, n)
	return n
}

// hasHotDirective reports whether a doc comment contains //splitlint:hot.
func hasHotDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == hotPrefix || strings.HasPrefix(text, hotPrefix+" ") {
			return true
		}
	}
	return false
}

// litNode creates (or returns) the node for a function literal inside parent.
func (b *cgBuilder) litNode(parent *cgNode, pkg *Package, lit *ast.FuncLit) *cgNode {
	if n, ok := b.g.lits[lit]; ok {
		return n
	}
	n := &cgNode{
		pkg:       pkg,
		name:      fmt.Sprintf("%s$%d", parent.name, parent.litCount()+1),
		pos:       lit.Pos(),
		hot:       parent.hot, // hot regions include their nested literals
		enclosing: parent,
	}
	b.g.lits[lit] = n
	b.g.nodes = append(b.g.nodes, n)
	return n
}

func (n *cgNode) litCount() int {
	c := 0
	for _, e := range n.calls {
		if e.to.enclosing == n {
			c++
		}
	}
	return c
}

// collectInterfaces indexes every module-defined interface method to the
// concrete module methods that implement it: conservative dynamic dispatch.
func (b *cgBuilder) collectInterfaces() {
	b.ifaceMethods = map[*types.Func][]*types.Func{}
	var ifaces []*types.Interface
	var concrete []types.Type
	for _, pkg := range b.m.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			for _, ct := range concrete {
				// Pointer receivers satisfy via *T; value receivers via both.
				impl := types.Type(types.NewPointer(ct))
				if !types.Implements(impl, it) && !types.Implements(ct, it) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, im.Pkg(), im.Name())
				if cm, ok := obj.(*types.Func); ok {
					b.ifaceMethods[im] = append(b.ifaceMethods[im], cm)
				}
			}
		}
	}
}

// walkBody records ops and edges for node n from the statements in body.
// Function literals get their own nodes and are walked recursively.
func (b *cgBuilder) walkBody(n *cgNode, pkg *Package, body *ast.BlockStmt) {
	if n == nil {
		return
	}
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			sub := b.litNode(n, pkg, x)
			// A closure value is itself a heap allocation.
			n.ops = append(n.ops, funcOp{opAlloc, x.Pos(), "function literal (closure allocation)"})
			n.calls = append(n.calls, cgEdge{to: sub, pos: x.Pos(), via: "literal"})
			b.walkBody(sub, pkg, x.Body)
			return false
		case *ast.GoStmt:
			n.ops = append(n.ops, funcOp{opGo, x.Pos(), "go statement (goroutine spawn)"})
			// The spawned body runs concurrently: walk it for its own node,
			// but record no call edge from n. Arguments ARE evaluated here.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				sub := b.litNode(n, pkg, lit)
				b.walkBody(sub, pkg, lit.Body)
			}
			for _, a := range x.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.SendStmt:
			n.ops = append(n.ops, funcOp{opChanOp, x.Pos(), "channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				n.ops = append(n.ops, funcOp{opChanOp, x.Pos(), "channel receive"})
			}
		case *ast.SelectStmt:
			n.ops = append(n.ops, funcOp{opChanOp, x.Pos(), "select statement"})
		case *ast.RangeStmt:
			if t := pkg.Info.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					n.ops = append(n.ops, funcOp{opChanOp, x.Pos(), "range over channel"})
				}
			}
		case *ast.CallExpr:
			b.recordCall(n, pkg, x)
			// Children are still walked for nested calls/literals in args.
		case *ast.CompositeLit:
			if t := pkg.Info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					n.ops = append(n.ops, funcOp{opAlloc, x.Pos(), "slice/map composite literal"})
				}
			}
		}
		if ue, ok := node.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if _, isLit := ue.X.(*ast.CompositeLit); isLit {
				n.ops = append(n.ops, funcOp{opAlloc, ue.Pos(), "&composite literal (escaping allocation)"})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// blockingMethods maps full names of blocking stdlib methods/functions.
var blockingMethods = map[string]string{
	"(*sync.Mutex).Lock":     "sync.(*Mutex).Lock",
	"(*sync.RWMutex).Lock":   "sync.(*RWMutex).Lock",
	"(*sync.RWMutex).RLock":  "sync.(*RWMutex).RLock",
	"(*sync.WaitGroup).Wait": "sync.(*WaitGroup).Wait",
	"(*sync.Cond).Wait":      "sync.(*Cond).Wait",
	"(*sync.Once).Do":        "sync.(*Once).Do",
	"time.Sleep":             "time.Sleep",
	"time.After":             "time.After",
	"time.Tick":              "time.Tick",
	"runtime.Gosched":        "runtime.Gosched",
	"(*os.File).Read":        "os file I/O",
	"(*os.File).Write":       "os file I/O",
}

// hostPackages are stdlib packages whose calls touch host state (files,
// sockets, processes): forbidden on the simulated hot path outright.
var hostPackages = map[string]bool{
	"os":      true,
	"os/exec": true,
	"syscall": true,
	"net":     true,
}

// recordCall classifies one call expression: module call edges, blocking or
// host-state ops for external callees, allocations for make/new, and
// event-handler registrations.
func (b *cgBuilder) recordCall(n *cgNode, pkg *Package, call *ast.CallExpr) {
	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if t := tv.Type; t != nil {
			// string <-> []byte conversions allocate.
			if bt, ok := t.Underlying().(*types.Basic); ok && bt.Kind() == types.String {
				if at := pkg.Info.Types[callArg(call, 0)].Type; at != nil {
					if _, isSlice := at.Underlying().(*types.Slice); isSlice {
						n.ops = append(n.ops, funcOp{opAlloc, call.Pos(), "[]byte-to-string conversion"})
					}
				}
			}
			if st, ok := t.Underlying().(*types.Slice); ok {
				_ = st
				if at := pkg.Info.Types[callArg(call, 0)].Type; at != nil {
					if bt, ok := at.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
						n.ops = append(n.ops, funcOp{opAlloc, call.Pos(), "string-to-[]byte conversion"})
					}
				}
			}
		}
		return
	}

	// Direct call of a function literal.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if sub, ok := b.g.lits[lit]; ok {
			n.calls = append(n.calls, cgEdge{to: sub, pos: call.Pos()})
		}
		return
	}

	callee := calleeFunc(pkg, call)
	if callee == nil {
		// Builtins and dynamic function values.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if bi, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				switch bi.Name() {
				case "make", "new":
					n.ops = append(n.ops, funcOp{opAlloc, call.Pos(), bi.Name() + " (heap allocation)"})
				}
			}
		}
		return
	}

	full := callee.FullName()

	// Event-handler registration: the callback argument becomes a root.
	// Resolution is deferred to the end of the build — a literal callback's
	// node does not exist yet while its enclosing call is being walked.
	if argIdx, ok := b.handlerRegistration(callee); ok && argIdx < len(call.Args) {
		b.pendingHandlers = append(b.pendingHandlers, pendingHandler{pkg, call.Args[argIdx]})
	}

	if callee.Pkg() != nil && modulePackage(b.m.ModPath, callee.Pkg().Path()) {
		// Module callee: static edge, or conservative interface fan-out.
		if target, ok := b.g.funcs[callee]; ok {
			n.calls = append(n.calls, cgEdge{to: target, pos: call.Pos()})
			return
		}
		// An interface method: fan out to every module implementation.
		if impls, ok := b.ifaceMethods[callee]; ok {
			via := "interface " + displayName(b.m.ModPath, callee)
			for _, impl := range impls {
				if target, ok := b.g.funcs[impl]; ok {
					n.calls = append(n.calls, cgEdge{to: target, pos: call.Pos(), via: via})
				}
			}
		}
		return
	}

	// External callee: classify.
	if detail, ok := blockingMethods[full]; ok {
		n.ops = append(n.ops, funcOp{opBlockCall, call.Pos(), detail})
		return
	}
	if callee.Pkg() != nil {
		p := callee.Pkg().Path()
		if hostPackages[p] || strings.HasPrefix(p, "net/") {
			n.ops = append(n.ops, funcOp{opHostCall, call.Pos(), p + "." + callee.Name() + " (host state)"})
		}
	}
}

func callArg(call *ast.CallExpr, i int) ast.Expr {
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// calleeFunc resolves the *types.Func a call invokes, for both plain and
// selector call forms. Returns nil for builtins, conversions, and dynamic
// function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil // field of function type: dynamic
		}
		// Package-qualified: time.Sleep, os.Open, sim.NewEnv.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// modulePackage reports whether path is inside the module under analysis.
func modulePackage(modPath, path string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// handlerRegistration reports whether fn is one of the sim event-loop
// registration points, and which argument is the callback that will run
// inside the event loop. These callbacks are documented "must not block":
// they run on the single event-loop goroutine between process switches.
// The set covers the run-to-completion core's whole handler surface —
// timer scheduling and the parked continuations the kernel daemons block
// through. (sim.Env.Go is
// deliberately absent: process bodies MAY block — that is the coroutine
// API's whole point.)
func (b *cgBuilder) handlerRegistration(fn *types.Func) (argIdx int, ok bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != b.m.ModPath+"/internal/sim" {
		return 0, false
	}
	recv := receiverTypeName(fn)
	switch {
	case recv == "Env" && fn.Name() == "Schedule":
		return 1, true // Schedule(d time.Duration, fn func())
	case recv == "Env" && fn.Name() == "ScheduleAt":
		return 1, true // ScheduleAt(at Time, fn func())
	case recv == "Completion" && fn.Name() == "WaitFn":
		return 0, true // WaitFn(fn func())
	case recv == "WaitQueue" && fn.Name() == "WaitFn":
		return 0, true // WaitFn(fn func(sig bool))
	case recv == "WaitQueue" && fn.Name() == "WaitTimeoutFn":
		return 1, true // WaitTimeoutFn(d time.Duration, fn func(sig bool))
	case recv == "" && fn.Name() == "WaitAllFn":
		return 1, true // WaitAllFn(cs []*Completion, k func())
	}
	return 0, false
}

// receiverTypeName returns the bare receiver type name of a method ("Env"
// for (*Env).Schedule), or "" for plain functions.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// markHandler marks the function a callback argument denotes as an
// event-handler root: a literal, a named function, or a method value.
func (b *cgBuilder) markHandler(pkg *Package, arg ast.Expr) {
	switch x := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if n, ok := b.g.lits[x]; ok {
			n.handler = true
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
			if n, ok := b.g.funcs[fn]; ok {
				n.handler = true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if n, ok := b.g.funcs[fn]; ok {
					n.handler = true
				}
			}
		} else if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			if n, ok := b.g.funcs[fn]; ok {
				n.handler = true
			}
		}
	}
}

// elevatorRoots returns the Add/Next/Completed methods of every module type
// implementing block.Elevator: the scheduler dispatch/completion surface the
// block layer calls from inside the event loop.
func (g *callGraph) elevatorRoots() []*cgNode {
	blockPkg := g.module.Lookup("internal/block")
	if blockPkg == nil || blockPkg.Types == nil {
		return nil
	}
	obj, ok := blockPkg.Types.Scope().Lookup("Elevator").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	hotMethods := []string{"Add", "Next", "Completed"}
	var out []*cgNode
	for _, pkg := range g.module.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
				continue
			}
			for _, m := range hotMethods {
				mobj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg.Types, m)
				if fn, ok := mobj.(*types.Func); ok {
					if n, ok := g.funcs[fn]; ok {
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

// hotRoots returns every hot-path entry point with a reason string:
// elevator implementations, registered event-loop callbacks, and
// //splitlint:hot-annotated functions.
func (g *callGraph) hotRoots() map[*cgNode]string {
	roots := map[*cgNode]string{}
	for _, n := range g.elevatorRoots() {
		roots[n] = "block.Elevator implementation (scheduler dispatch/completion path)"
	}
	for _, n := range g.nodes {
		if n.handler {
			roots[n] = "event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn)"
		}
		if n.hot && n.enclosing == nil {
			roots[n] = "//splitlint:hot function"
		}
	}
	return roots
}
