// Package ssd is the high-fidelity flash device model: a geometry of
// channels × dies × planes with per-die busy-until state (requests to idle
// dies overlap; the flat-latency device.SSD is the degenerate 1×1 case), a
// page-mapped FTL (logical→physical map, out-of-place writes, per-erase-block
// valid counts), over-provisioning, and background garbage collection
// (greedy victim selection, valid-page migration charged as internal
// read+program traffic, erase latency) triggered by a free-block
// low-watermark.
//
// The model implements device.Disk, so it slots under the block dispatcher
// and composes with the fault plane's wrappers unchanged. What the flat
// model cannot express — and this one exists to expose — is GC-induced
// priority inversion: a foreground sync write landing on a die held by a
// victim-block migration waits out the migration, and the per-request
// GC-attributable wait is reported in device.Service.GCStall so the block
// layer can emit a gc-wait span and the attr detector can blame the GC
// pseudo-process.
//
// Deliberately not modeled: wear leveling (no per-block erase counts drive
// placement), read disturb, program/erase suspension, multi-plane command
// pairing, and DRAM cache hits in the FTL lookup path. See DESIGN.md.
package ssd

import (
	"time"

	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// GCPID is the pseudo-PID the garbage collector's trace spans carry, from
// the kernel-proxy range below attr's user-PID base (pdflush=2, jbd=3,
// gc=4).
const GCPID causes.PID = 4

// Block states of one erase block.
const (
	blockFree uint8 = iota
	blockActive
	blockFull
)

// fnvOffset/fnvPrime are the FNV-1a parameters for the migration-trace
// hash, the compact determinism witness tests compare across runs.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Config is the device geometry and timing. All counts must be positive;
// New panics on a geometry whose page count overflows the int32 FTL maps.
type Config struct {
	// Channels is the number of flash channels; DiesPerChan dies share each
	// channel's transfer bus. PlanesPerDie × BlocksPerPlane erase blocks of
	// PagesPerBlock 4 KiB pages sit on every die.
	Channels       int
	DiesPerChan    int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int

	// OverProvision is the fraction of physical pages hidden from the
	// exported capacity; the slack is what keeps GC victims from being
	// fully valid.
	OverProvision float64

	// GCLowWater is the free-block count at or below which background GC
	// runs; GCCritical is the count at or below which it runs even against
	// a closed scheduler gate (see SetGCGate).
	GCLowWater int
	GCCritical int
}

const (
	// pageRead/pageProgram/blockErase are the NAND array times; chanXfer is
	// the per-page channel transfer time.
	pageRead    = 60 * time.Microsecond
	pageProgram = 350 * time.Microsecond
	blockErase  = 2 * time.Millisecond
	chanXfer    = 25 * time.Microsecond
	// gcPoll is how often a deferred collector re-checks the gate.
	gcPoll = 500 * time.Microsecond
)

// DefaultConfig is an ~4 GiB-exported device: 8 channels × 4 dies ×
// 2 planes × 72 blocks × 256 pages ≈ 4.5 GiB physical, 12.5%
// over-provisioned. Timings follow mid-range MLC parts (60 µs read,
// 350 µs program, 2 ms erase, 25 µs channel transfer per 4 KiB page).
func DefaultConfig() Config {
	return Config{
		Channels:       8,
		DiesPerChan:    4,
		PlanesPerDie:   2,
		BlocksPerPlane: 72,
		PagesPerBlock:  256,
		OverProvision:  0.125,
		GCLowWater:     128,
		GCCritical:     16,
	}
}

// Device is the FTL SSD. It implements device.Disk; like every disk model,
// Serve is stateful and must be called in dispatch order.
type Device struct {
	cfg  Config
	env  *sim.Env
	tr   *trace.Tracer
	work *sim.WaitQueue
	gate func() bool

	dies         int
	blocksPerDie int
	numBlocks    int
	physPages    int64
	exported     int64

	// l2p maps logical page → physical page (-1 unmapped); p2l is the
	// inverse (-1 invalid or erased) and doubles as the per-block validity
	// bitmap: valid[b] counts the non-negative p2l entries of block b.
	l2p   []int32
	p2l   []int32
	valid []int32
	state []uint8

	// freeOf holds each die's free erase blocks (LIFO); fgBlock/fgNext and
	// gcBlock/gcNext are the per-die foreground and GC append points
	// (hot/cold separation: migrated pages never share a block with fresh
	// host writes).
	freeOf     [][]int32
	freeBlocks int
	minFree    int
	fgBlock    []int32
	fgNext     []int32
	gcBlock    []int32
	gcNext     []int32

	// Busy-until times: dieFree/chanFree serialize the NAND arrays and
	// channel buses; gcHeld marks how far into the future GC holds a die,
	// so foreground waits can be split into "queueing" and "GC stall".
	dieFree  []time.Duration
	chanFree []time.Duration
	gcHeld   []time.Duration

	cursor int // round-robin die allocation cursor

	// Counters. Pages written split into host and GC traffic so write
	// amplification is (host+gc)/host; stall/busy totals are integer
	// nanoseconds (on-demand float division keeps accounting exact).
	hostPages int64
	gcPages   int64
	erases    int64
	gcRuns    int64
	stallNS   int64
	gcBusyNS  int64
	gcHash    uint64

	// Run-to-completion collector state (the default engine): the step and
	// park callbacks are allocated once so GC pacing never allocates.
	gcStepFn func()
	gcWaitFn func(sig bool)
}

// New builds a device and starts its background collector on env.
func New(env *sim.Env, cfg Config) *Device {
	if cfg.Channels <= 0 || cfg.DiesPerChan <= 0 || cfg.PlanesPerDie <= 0 ||
		cfg.BlocksPerPlane <= 0 || cfg.PagesPerBlock <= 0 {
		panic("ssd: non-positive geometry")
	}
	d := &Device{cfg: cfg, env: env, tr: trace.Nop, work: sim.NewWaitQueue(env)}
	d.dies = cfg.Channels * cfg.DiesPerChan
	d.blocksPerDie = cfg.PlanesPerDie * cfg.BlocksPerPlane
	d.numBlocks = d.dies * d.blocksPerDie
	d.physPages = int64(d.numBlocks) * int64(cfg.PagesPerBlock)
	if d.physPages > 1<<31-1 {
		panic("ssd: geometry overflows int32 page indices")
	}
	op := int64(float64(d.physPages) * cfg.OverProvision)
	d.exported = d.physPages - op
	if d.exported < int64(cfg.PagesPerBlock) {
		panic("ssd: over-provisioning leaves no exported capacity")
	}
	d.l2p = make([]int32, d.exported)
	d.p2l = make([]int32, d.physPages)
	for i := range d.l2p {
		d.l2p[i] = -1
	}
	for i := range d.p2l {
		d.p2l[i] = -1
	}
	d.valid = make([]int32, d.numBlocks)
	d.state = make([]uint8, d.numBlocks)
	d.freeOf = make([][]int32, d.dies)
	for die := 0; die < d.dies; die++ {
		q := make([]int32, 0, d.blocksPerDie)
		// Push in descending id so the LIFO pops lowest-id blocks first.
		for b := d.blocksPerDie - 1; b >= 0; b-- {
			q = append(q, int32(die*d.blocksPerDie+b))
		}
		d.freeOf[die] = q
	}
	d.freeBlocks = d.numBlocks
	d.minFree = d.numBlocks
	d.fgBlock = make([]int32, d.dies)
	d.fgNext = make([]int32, d.dies)
	d.gcBlock = make([]int32, d.dies)
	d.gcNext = make([]int32, d.dies)
	for die := 0; die < d.dies; die++ {
		d.fgBlock[die] = -1
		d.gcBlock[die] = -1
	}
	d.dieFree = make([]time.Duration, d.dies)
	d.chanFree = make([]time.Duration, cfg.Channels)
	d.gcHeld = make([]time.Duration, d.dies)
	d.gcHash = fnvOffset
	d.gcStepFn = d.gcStep
	d.gcWaitFn = func(sig bool) { d.gcStep() }
	// The collector's first watermark probe is a t=0 startup event
	// scheduled in construction order, which fixes the kernel's seq
	// numbering; the schedule goldens pin it.
	env.Schedule(0, d.gcStepFn)
	return d
}

// SetTracer installs the kernel tracer so GC activity is emitted as device
// spans (nil restores the disabled Nop).
func (d *Device) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	d.tr = tr
}

// SetGCGate installs the scheduler hint hook: when non-nil and returning
// false, background GC defers (re-polling every gcPoll) unless the free
// pool has fallen to GCCritical. GC-aware split schedulers close the gate
// while high-priority sync requests are queued.
func (d *Device) SetGCGate(gate func() bool) { d.gate = gate }

// Config returns the device's geometry and GC configuration.
func (d *Device) Config() Config { return d.cfg }

// Name implements device.Disk.
func (d *Device) Name() string { return "ftlssd" }

// Blocks implements device.Disk: the exported capacity in 4 KiB blocks
// (one logical page each).
func (d *Device) Blocks() int64 { return d.exported }

// SeqBandwidth implements device.Disk: streaming throughput is bounded by
// the busier of the shared channel buses and the NAND program arrays.
func (d *Device) SeqBandwidth() float64 {
	per := chanXfer / time.Duration(d.cfg.Channels)
	if die := pageProgram / time.Duration(d.dies); die > per {
		per = die
	}
	return float64(device.BlockSize) / per.Seconds()
}

// RandPageCost is the cost-model estimate for one random page access
// (array read plus channel transfer, no queueing).
func (d *Device) RandPageCost() time.Duration { return pageRead + chanXfer }

// clampLP folds an arbitrary LBA into the exported logical page range, so
// defensive callers (property tests, clamped workloads) never index out of
// the map.
func (d *Device) clampLP(lba int64) int64 {
	lp := lba % d.exported
	if lp < 0 {
		lp += d.exported
	}
	return lp
}

func maxd(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Serve implements device.Disk. Each 4 KiB block is one flash page:
// writes allocate a physical page out-of-place on a round-robin die
// (channel transfer, then program; the old mapping is invalidated), reads
// address the mapped die (array read, then channel transfer). Pages of one
// request overlap across idle dies and channels; the request completes when
// its last page does. A barrier charges one extra program (the device
// flushes its buffer RAM). Position is the wait before the first page's
// media work began, Transfer the rest; GCStall sums the pages' waits on
// dies held by GC migration or erase. Serve is reachable from the block
// dispatcher's hot loop, so it must not block and must stay
// allocation-free.
//
//splitlint:hot
func (d *Device) Serve(r device.Request) device.Service {
	n := r.Blocks
	if n <= 0 {
		n = 1
	}
	now := r.Now
	end := now
	first := time.Duration(-1)
	var stall time.Duration
	for i := 0; i < n; i++ {
		lp := d.clampLP(r.LBA + int64(i))
		var fin, start, st time.Duration
		if r.Op == device.Write {
			fin, start, st = d.writePage(lp, now)
		} else {
			fin, start, st = d.readPage(lp, now)
		}
		if fin > end {
			end = fin
		}
		if first < 0 || start < first {
			first = start
		}
		stall += st
	}
	if r.Barrier {
		end += pageProgram
	}
	svc := end - now
	pos := first - now
	if pos < 0 {
		pos = 0
	}
	d.stallNS += int64(stall)
	if d.freeBlocks <= d.cfg.GCLowWater {
		d.work.Signal()
	}
	return device.Service{Total: svc, Position: pos, Transfer: svc - pos, GCStall: stall}
}

// writePage maps lp to a fresh physical page and charges the channel
// transfer and program. It returns the page's finish time, the start of
// its media work, and the GC-attributable part of its die wait.
func (d *Device) writePage(lp int64, now time.Duration) (fin, start, stall time.Duration) {
	phys, die := d.allocPage(now)
	d.remap(lp, phys)
	ch := die % d.cfg.Channels
	xstart := maxd(now, d.chanFree[ch])
	xend := xstart + chanXfer
	d.chanFree[ch] = xend
	pstart := maxd(xend, d.dieFree[die])
	stall = d.gcWait(die, xend, pstart)
	pend := pstart + pageProgram
	d.dieFree[die] = pend
	d.hostPages++
	return pend, xstart, stall
}

// readPage charges an array read on the mapped die and the channel
// transfer out. Unmapped pages (never written) still address a
// deterministic pseudo-die: the FTL answers from its map, but the model
// charges a full read, which keeps read cost independent of write history.
func (d *Device) readPage(lp int64, now time.Duration) (fin, start, stall time.Duration) {
	die := int(lp % int64(d.dies))
	if phys := d.l2p[lp]; phys >= 0 {
		die = int(phys) / d.cfg.PagesPerBlock / d.blocksPerDie
	}
	rstart := maxd(now, d.dieFree[die])
	stall = d.gcWait(die, now, rstart)
	rend := rstart + pageRead
	d.dieFree[die] = rend
	ch := die % d.cfg.Channels
	xstart := maxd(rend, d.chanFree[ch])
	xend := xstart + chanXfer
	d.chanFree[ch] = xend
	return xend, rstart, stall
}

// gcWait returns how much of a die wait beginning at ready and ending at
// start is attributable to GC holding the die.
func (d *Device) gcWait(die int, ready, start time.Duration) time.Duration {
	held := d.gcHeld[die]
	if held > start {
		held = start
	}
	if held <= ready {
		return 0
	}
	return held - ready
}

// remap points lp at phys, invalidating any previous mapping.
func (d *Device) remap(lp int64, phys int32) {
	if old := d.l2p[lp]; old >= 0 {
		d.p2l[old] = -1
		d.valid[int(old)/d.cfg.PagesPerBlock]--
	}
	d.l2p[lp] = phys
	d.p2l[phys] = int32(lp)
	d.valid[int(phys)/d.cfg.PagesPerBlock]++
}

// allocPage takes the next page at a foreground append point, rotating
// across dies so consecutive writes stripe over channels. When every die is
// out of space it runs synchronous emergency collections until one frees a
// foreground block — the non-blocking last resort that keeps the hot path
// alloc-safe when background GC has fallen behind. The loop terminates:
// every collection reclaims at least one invalid page, and the device holds
// a bounded number of them.
func (d *Device) allocPage(now time.Duration) (int32, int) {
	for {
		for i := 0; i < d.dies; i++ {
			die := d.cursor
			d.cursor++
			if d.cursor == d.dies {
				d.cursor = 0
			}
			if phys, ok := d.takePage(die, false); ok {
				return phys, die
			}
		}
		if d.collect(now) == 0 {
			break
		}
	}
	panic("ssd: out of physical pages (over-provisioning exhausted)")
}

// takePage returns the next free page on die from its foreground or GC
// append block, opening a fresh block from the die's free list when the
// current one fills. Foreground allocation never opens the last free block:
// one block stays reserved as a GC migration destination, so an emergency
// collection always has somewhere to move the victim's valid pages.
func (d *Device) takePage(die int, gc bool) (int32, bool) {
	blk, next := &d.fgBlock[die], &d.fgNext[die]
	if gc {
		blk, next = &d.gcBlock[die], &d.gcNext[die]
	}
	if *blk < 0 {
		if !gc && d.freeBlocks <= 1 {
			return 0, false
		}
		q := d.freeOf[die]
		if len(q) == 0 {
			return 0, false
		}
		b := q[len(q)-1]
		d.freeOf[die] = q[:len(q)-1]
		d.freeBlocks--
		if d.freeBlocks < d.minFree {
			d.minFree = d.freeBlocks
		}
		d.state[b] = blockActive
		*blk = b
		*next = 0
	}
	phys := (*blk)*int32(d.cfg.PagesPerBlock) + *next
	*next++
	if int(*next) == d.cfg.PagesPerBlock {
		d.state[*blk] = blockFull
		*blk = -1
		*next = 0
	}
	return phys, true
}

// Age instantly drives the FTL into steady state: it maps util of the
// exported capacity with a sequential fill, then overwrites pages in a
// fixed prime stride until only slack free blocks remain above the GC
// low-watermark. No virtual time passes and no service counters move —
// aging is device history, not workload.
func (d *Device) Age(util float64, slack int) {
	n := int64(float64(d.exported) * util)
	if n > d.exported {
		n = d.exported
	}
	if n <= 0 {
		return
	}
	for lp := int64(0); lp < n; lp++ {
		d.agePage(lp)
	}
	target := d.cfg.GCLowWater + slack
	lp := int64(0)
	for d.freeBlocks > target {
		d.agePage(lp)
		lp = (lp + 7919) % n
	}
	d.minFree = d.freeBlocks
}

// agePage is the untimed write path aging uses: mapping and allocation
// state advance, busy-until clocks and counters do not.
func (d *Device) agePage(lp int64) {
	phys, _ := d.allocPage(0)
	d.remap(lp, phys)
}

// FreeBlocks returns the current free erase-block count.
func (d *Device) FreeBlocks() int { return d.freeBlocks }

// MinFreeBlocks returns the lowest free-block count observed (reset by
// Age), the watermark witness GC tests assert on.
func (d *Device) MinFreeBlocks() int { return d.minFree }

// HostPages and GCPages return pages programmed for host writes and GC
// migrations; Erases and GCRuns count erase operations and completed
// collections.
func (d *Device) HostPages() int64 { return d.hostPages }

// GCPages returns pages programmed by GC migrations.
func (d *Device) GCPages() int64 { return d.gcPages }

// Erases returns the number of block erases performed.
func (d *Device) Erases() int64 { return d.erases }

// GCRuns returns the number of completed collections.
func (d *Device) GCRuns() int64 { return d.gcRuns }

// WriteAmp returns write amplification: NAND pages programmed per host
// page written (1 when nothing was written).
func (d *Device) WriteAmp() float64 {
	if d.hostPages == 0 {
		return 1
	}
	return float64(d.hostPages+d.gcPages) / float64(d.hostPages)
}

// GCBusy returns total die time consumed by migrations and erases.
func (d *Device) GCBusy() time.Duration { return time.Duration(d.gcBusyNS) }

// StallTotal returns total foreground wait attributed to GC.
func (d *Device) StallTotal() time.Duration { return time.Duration(d.stallNS) }

// GCTraceHash returns the FNV-1a hash of every GC decision (victim id and
// migrated-page count, in collection order) — the compact witness that two
// same-seed runs collected identically.
func (d *Device) GCTraceHash() uint64 { return d.gcHash }

// RegisterMetrics publishes the device gauges into r under "ssd.".
func (d *Device) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("ssd.free_blocks", func() float64 { return float64(d.freeBlocks) })
	r.Gauge("ssd.write_amp", func() float64 { return d.WriteAmp() })
	r.Gauge("ssd.host_pages", func() float64 { return float64(d.hostPages) })
	r.Gauge("ssd.gc_runs", func() float64 { return float64(d.gcRuns) })
	r.Gauge("ssd.gc_pages", func() float64 { return float64(d.gcPages) })
	r.Gauge("ssd.gc_erases", func() float64 { return float64(d.erases) })
	r.Gauge("ssd.gc_busy_seconds", func() float64 { return d.GCBusy().Seconds() })
	r.Gauge("ssd.gc_stall_seconds", func() float64 { return d.StallTotal().Seconds() })
}
