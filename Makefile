# Tier-1 verification plus static and race checks.
#
#   make check       vet (with gofmt) + lint + build + tests + benchmark tests + race + fuzz corpora + crash-consistency smoke + gcsweep + report + slo + tracegate
#   make lint        splitlint determinism-contract analyzers (see DESIGN.md)
#   make benchtest   tests of cmd/benchmark, a nested module the root `go test ./...` skips
#   make crashsweep  fault-injected crash sweep over seeds 1..4; fails on any invariant violation
#   make gcsweep     GC-inversion sweep on an aged FTL SSD; fails if gc-afq inverts
#   make report      latency-attribution report; fails on split-scheduler inversions
#   make slo         windowed SLO gates: the slo experiment (CFQ must breach with a bundle, split-AFQ
#                    must not) and `splitbench monitor` (fails if a split scheduler breaches)
#   make tracegate   traced fig9 under a virtual-memory cap; fails if -trace memory grows with the run
#   make clean       remove generated artifacts (reports, SARIF, coverage, post-mortems)
#   make fuzz        checked-in fuzz corpora in regression mode (no exploration)
#   make cover       coverage profile + HTML; fails if total drops below coverage-baseline.txt
#   make microbench  testing.B microbenchmarks: DES event loop and mix, cache, perf probes, SSD
#
# NPROC controls -j for the splitbench sweeps (cells fan across a worker
# pool; output is byte-identical at any -j, so parallelism is free).

GO ?= go
NPROC ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: check build test benchtest vet race microbench lint fuzz cover crashsweep gcsweep report slo tracegate clean

check: vet lint build test benchtest race fuzz crashsweep gcsweep report slo tracegate

# The full interprocedural suite (call graph + taint fixpoints) is the
# slowest static check, so the wall time is echoed to stderr; the SARIF
# log feeds the code-scanning upload in CI.
lint:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/splitlint -sarif splitlint.sarif || exit $$?; \
	end=$$(date +%s%N); \
	echo "splitlint: clean in $$(( (end - start) / 1000000 )) ms" >&2

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# cmd/benchmark has its own go.mod (the benchmark builds standalone from a
# checkout), so the root module's `go test ./...` never reaches its tests.
benchtest:
	cd cmd/benchmark && $(GO) test ./...

# gofmt is part of vet: any unformatted Go file fails it, except testdata
# (analyzer fixtures) and dot-directories (build caches such as .bench_build).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -Ev '(^|/)testdata/|^\.' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

race:
	$(GO) test -race ./...

# BenchmarkSplitlintRepo is a full cold whole-program analysis per
# iteration, so it gets its own -benchtime=1x invocation rather than
# joining the 1000x hot-path line. BenchmarkEventLoopMix gets a 2M-event
# budget: at 1000 events its set-up dominates events/s. The zero-alloc
# tests are the asserted complement of the microbenchmarks: steady-state
# schedule/pop must allocate nothing (pooled events, concrete-typed
# four-ary heap), nor must a page run evicting its way into a full page
# cache (recycled ring nodes and chunks), and the target fails if either
# regresses.
microbench:
	$(GO) test -run '^TestScheduleRunZeroAllocs$$' -count=1 ./internal/sim
	$(GO) test -run '^TestEvictInsertZeroAllocs$$' -count=1 ./internal/cache
	$(GO) test -bench=. -skip=BenchmarkEventLoopMix -benchtime=1000x -run '^$$' ./internal/sim ./internal/cache ./internal/perf ./internal/ssd
	$(GO) test -bench=BenchmarkEventLoopMix -benchtime=2000000x -run '^$$' ./internal/sim
	$(GO) test -bench=BenchmarkSplitlintRepo -benchtime=1x -run '^$$' ./internal/analysis

# Replays the checked-in seed corpora (testdata/fuzz/...) without fuzzing:
# a pure regression gate that keeps every once-interesting input passing.
fuzz:
	$(GO) test -run '^Fuzz' ./internal/attr

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	base=$$(cat coverage-baseline.txt); \
	echo "coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $$base% baseline" >&2; exit 1; }

# Crash invariants must hold across the seed sweep, not just one seed: each
# seed draws its own fault plans and crash images.
crashsweep:
	$(GO) run ./cmd/splitbench -scale 0.1 -seeds 1..4 -j $(NPROC) -postmortem postmortem-crashsweep.json crashsweep

# GC-inversion demonstration on a steady-state-aged FTL SSD: CFQ must show
# gc-stall inversions (the phenomenon) and gc-afq must show none (the fix);
# either failing is a violation that exits nonzero.
gcsweep:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-gcsweep.json gcsweep

# Runs the entangled antagonist workload under noop/cfq/afq, writes the
# blame-table report (the CI artifact), and exits nonzero if any split
# scheduler shows a priority inversion.
report:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-report.json report -format json -o report.json

# Two-sided windowed-SLO gate on the entangled antagonist workload: the
# block-level baseline must breach at a deterministic virtual timestamp and
# dump a flight-recorder bundle; split-AFQ on the same seed must not breach.
# Then the live monitor over the same workload exits 1 if a split scheduler
# (afq, split-token) breaches. It runs without -postmortem: CFQ's expected
# breach always trips a bundle, so the file would exist on every passing
# run, and a postmortem file's existence signals a failed gate.
slo:
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) -postmortem postmortem-slo.json slo
	$(GO) run ./cmd/splitbench -scale 0.1 -seed 1 -j $(NPROC) monitor -schedulers cfq,afq,split-token

# -trace streams its output, so a traced run's memory must not grow with
# its event count. Traced fig9 at -scale 0.3 records 490,334 events (at 0.05
# and 0.1 it records 239,241: o.dur clamps every window to 1 s); it runs
# under a TRACEGATE_KB virtual-memory cap (ulimit -v), which must stay
# above the Go runtime's own reservations: on a 2-CPU linux/amd64 host
# splitbench needs about 750000 KB to start and run fig9 at all, while a
# tracer that kept every event failed at 1000000 KB. The binary is built
# before the cap applies, so the compiler does not run under it.
TRACEGATE_KB ?= 900000
tracegate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/splitbench" ./cmd/splitbench && \
	(ulimit -v $(TRACEGATE_KB) && "$$tmp/splitbench" -scale 0.3 -trace "$$tmp/fig9.json" fig9 >/dev/null 2>"$$tmp/stderr") || \
	{ head -3 "$$tmp/stderr" >&2; echo "tracegate: traced fig9 failed under ulimit -v $(TRACEGATE_KB)" >&2; exit 1; }

# Generated artifacts only — never sources. Post-mortem bundles are kept by
# CI as artifacts, not by git.
clean:
	rm -f report.json splitlint.sarif coverage.out coverage.html postmortem-*.json
