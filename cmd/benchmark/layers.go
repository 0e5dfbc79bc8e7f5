package main

import "strings"

// modulePath is the import path prefix of the simulator's packages.
const modulePath = "splitio"

// layers lists the per-layer host-cost buckets in report order. They are
// named after the repo's modules: the stack from syscall to device, then
// the simulation core, workload models, observability, the perf probes,
// the harness, and two runtime buckets.
var layers = []string{
	"vfs", "cache", "causes", "fs", "block", "sched", "device", "crash",
	"sim", "cpusim", "workload", "obs", "probe", "harness", "gc", "goroutine",
}

// packageLayers maps the first path element under internal/ to its layer.
// Every internal package must map somewhere (TestEveryPackageHasALayer).
var packageLayers = map[string]string{
	"vfs":         "vfs",
	"cache":       "cache",
	"causes":      "causes",
	"ioctx":       "causes",
	"fs":          "fs",
	"block":       "block",
	"sched":       "sched",
	"stride":      "sched",
	"tokenbucket": "sched",
	"device":      "device",
	"ssd":         "device",
	"fault":       "device",
	"crash":       "crash",
	"sim":         "sim",
	"cpusim":      "cpusim",
	"workload":    "workload",
	"apps":        "workload",
	"trace":       "obs",
	"attr":        "obs",
	"monitor":     "obs",
	"metrics":     "obs",
	"perf":        "probe",
	"exp":         "harness",
	"sweep":       "harness",
	"core":        "harness",
	// Test and lint harnesses: never on a benchmark stack, mapped so the
	// map stays total.
	"analysis":  "harness",
	"schedtest": "harness",
	"stress":    "harness",
}

// packageLayer returns the layer of a repo package path, or "" when the
// package is not the repo's (or maps nowhere). The benchmark's own frames
// (package main) and the module's root, cmd and examples packages are the
// harness.
func packageLayer(pkg string) string {
	if pkg == "main" || pkg == modulePath {
		return "harness"
	}
	rest, ok := strings.CutPrefix(pkg, modulePath+"/")
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, "cmd/") || strings.HasPrefix(rest, "examples/") {
		return "harness"
	}
	rest, ok = strings.CutPrefix(rest, "internal/")
	if !ok {
		return ""
	}
	first, _, _ := strings.Cut(rest, "/")
	return packageLayers[first]
}

// funcPackage returns the package path of a symbol name as pprof records
// it, e.g. "splitio/internal/cache.(*Cache).MarkDirty" -> the cache path.
// Type arguments are cut first: they may hold other packages' paths.
func funcPackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// stackLayer charges one CPU sample to the innermost repo frame of its
// stack (leaf first). Runtime frames below it — malloc, GC assists, map
// probes — are that caller's cost, so every sample lands in exactly one
// layer. A stack with no repo frame is background GC work, or else
// goroutine scheduling.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := packageLayer(funcPackage(fn)); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.bgscavenge" || fn == "runtime._GC" {
			return "gc"
		}
	}
	return "goroutine"
}

// layerNS attributes a profile's CPU time to layers. The values sum to the
// profile total exactly.
func layerNS(p *cpuProfile) (byLayer map[string]int64, samples, totalNS int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, s := range p.samples {
		byLayer[stackLayer(s.stack)] += s.ns
		samples += s.count
		totalNS += s.ns
	}
	return byLayer, samples, totalNS
}
