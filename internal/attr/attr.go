// Package attr converts the cross-layer trace span stream into per-request
// latency attribution: for every traced syscall, where the wall (virtual)
// time went — waiting on dirty-ratio throttling, entangled in a journal
// commit, queued in the elevator, being served by the device — and every
// interval where one process's critical path ran through work billed to
// another (the priority inversions of paper §2: ordered-mode data flushes,
// shared transaction commits, and writeback delegation).
//
// Attribution is a trace.Sink: it consumes events online, in emission
// order, holding only bounded state — open-request category sums, a short
// window of recent transactions and writeback flushes — so it never needs
// the full event stream, which the tracer does not keep. Everything it produces is deterministic for a given seed: state
// is keyed by insertion-ordered slices, and inversion records are emitted
// in event order with culprits sorted by PID.
package attr

import (
	"sort"
	"time"

	"splitio/internal/causes"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// userPIDBase is the first user-process PID; the VFS allocates upward from
// 100 and kernel proxies (pdflush=2, jbd=3, gc=4) sit below. Attribution
// reports blame and inversions for user requests only.
const userPIDBase = 100

// gcPID is the FTL SSD garbage collector's pseudo-PID (internal/ssd emits
// its migration and erase spans under it). GC-stall inversions are the one
// case where the culprit is a kernel-side actor rather than a user
// process: the detector names it explicitly instead of filtering it out.
const gcPID causes.PID = 4

// Bounds on online state, so attribution memory is O(1) in run length.
const (
	maxOpenReqs       = 4096 // in-flight request states before oldest-eviction
	maxTxnsTracked    = 16   // recent transactions with ordered-flush detail
	maxFlushesPerTxn  = 64   // foreign flushes remembered per transaction
	maxWritebackSpans = 64   // recent kernel-task flushes for throttle overlap
	maxInversionsKept = 1024 // retained Inversion records (counters keep going)
)

// Category names one destination of a request's wall time.
type Category uint8

// Categories of the critical-path decomposition. CatOther is the
// remainder: CPU charges, lock waits, and intervals no instrumented span
// covers.
const (
	CatTotal Category = iota
	CatThrottle
	CatJournal
	CatQueue
	CatDevice
	CatOther
	numCategories
)

var categoryNames = [numCategories]string{"total", "throttle", "journal", "queue", "device", "other"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Categories lists every category in table order.
func Categories() []Category {
	return []Category{CatTotal, CatThrottle, CatJournal, CatQueue, CatDevice, CatOther}
}

// Kind names one entanglement pattern the detector recognizes.
type Kind uint8

// Inversion kinds, mirroring the paper's §2 pathologies.
const (
	// KindTxnCommit: an fsync waited on a journal commit whose transaction
	// carried another process's updates (shared-txn entanglement, Fig 4).
	KindTxnCommit Kind = iota
	// KindOrderedFlush: the awaited commit force-flushed another process's
	// dirty data first (ordered mode, §2.3.2).
	KindOrderedFlush
	// KindWriteback: a write stalled in dirty-ratio throttling while the
	// writeback task drained pages owned by other processes (delegation,
	// §2.3.1).
	KindWriteback
	// KindGCStall: a sync request waited on a flash die held by the FTL's
	// garbage collector — device-internal background work entangled with a
	// foreground durability path (the scenario class the flat SSD model
	// cannot produce).
	KindGCStall
	numKinds
)

var kindNames = [numKinds]string{"txn-commit", "ordered-flush", "writeback-delegation", "gc-stall"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds lists every inversion kind in report order.
func Kinds() []Kind {
	return []Kind{KindTxnCommit, KindOrderedFlush, KindWriteback, KindGCStall}
}

// Inversion is one detected interval where a request's critical path ran
// through work billed to another process.
type Inversion struct {
	Kind Kind
	// Victim is the process whose request absorbed the foreign work.
	Victim causes.PID
	// Culprit is the process whose work the victim waited on.
	Culprit causes.PID
	// Layer is where the entanglement happened (fs for journal kinds,
	// cache for writeback delegation).
	Layer trace.Layer
	// Dur is the victim wall time attributable to the entanglement.
	Dur time.Duration
	// At is when the victim's wait began.
	At sim.Time
	// Txn is the journal transaction involved (0 for writeback delegation).
	Txn int64
	// Req is the victim's trace request ID.
	Req trace.ReqID
}

// reqState accumulates category time for one open request.
type reqState struct {
	cats [numCategories]time.Duration
}

// txnFlush is one journal-driven data flush remembered for ordered-flush
// inversion detection.
type txnFlush struct {
	cs  causes.Set
	dur time.Duration
}

type txnState struct {
	flushes []txnFlush
}

// wbSpan is one recent kernel-task data flush, kept for overlap tests
// against dirty-throttle stalls.
type wbSpan struct {
	start, end sim.Time
	cs         causes.Set
}

type groupKey struct {
	pid causes.PID
	op  string
}

// group aggregates finished requests of one (pid, op) pair.
type group struct {
	key   groupKey
	n     int64
	sum   [numCategories]time.Duration
	total metrics.Histogram
}

// Attribution is the online critical-path decomposer and inversion
// detector. Create with New, attach with trace.Tracer.Attach, and read the
// results after the run (or sample the registered histograms during it).
type Attribution struct {
	reqs     map[trace.ReqID]*reqState
	reqOrder []trace.ReqID

	txns     map[int64]*txnState
	txnOrder []int64

	wb []wbSpan

	groups     map[groupKey]*group
	groupOrder []groupKey

	// agg are the run-wide per-category histograms (one sample per finished
	// user request each), registered via RegisterMetrics.
	agg [numCategories]*metrics.Histogram

	inversions []Inversion
	kindCount  [numKinds]int64
	kindDur    [numKinds]time.Duration
	requests   int64
}

// New returns an empty attribution sink.
func New() *Attribution {
	a := &Attribution{
		reqs:   make(map[trace.ReqID]*reqState),
		txns:   make(map[int64]*txnState),
		groups: make(map[groupKey]*group),
	}
	for i := range a.agg {
		a.agg[i] = &metrics.Histogram{}
	}
	return a
}

// RegisterMetrics publishes the per-category latency histograms (as
// "attr.<category>") and inversion counters into r, so `-stats` output and
// gauge samplers see attribution alongside the standard layer gauges.
func (a *Attribution) RegisterMetrics(r *metrics.Registry) {
	for _, c := range Categories() {
		r.AddHistogram("attr."+c.String(), a.agg[c])
	}
	r.Gauge("attr.requests", func() float64 { return float64(a.requests) })
	r.Gauge("attr.inversions", func() float64 { return float64(a.TotalInversions()) })
}

// Consume implements trace.Sink. Events must arrive in emission order; the
// tracer guarantees a request's descendant spans are recorded before its
// syscall root (the VFS records the root last), so a root's arrival
// finalizes the request.
func (a *Attribution) Consume(ev trace.Event) {
	switch {
	case ev.Layer == trace.LayerSyscall:
		a.finishRequest(ev)
	case ev.Op == trace.OpThrottle:
		a.addCat(ev.Req, CatThrottle, ev.Dur())
		a.detectWriteback(ev)
	case ev.Op == trace.OpCommitWait:
		a.addCat(ev.Req, CatJournal, ev.Dur())
		a.detectCommit(ev)
	case ev.Op == trace.OpQueue:
		a.addCat(ev.Req, CatQueue, ev.Dur())
	case ev.Op == trace.OpGCWait:
		// Detection only: the stall is inside the service span, which the
		// device cases below already bill to CatDevice.
		a.detectGCStall(ev)
	case ev.Op == trace.OpService || ev.Op == trace.OpPosition || ev.Op == trace.OpTransfer:
		a.addCat(ev.Req, CatDevice, ev.Dur())
	case ev.Op == trace.OpFlushData:
		a.noteFlush(ev)
	}
}

func (a *Attribution) addCat(req trace.ReqID, c Category, d time.Duration) {
	if req == 0 || d <= 0 {
		return
	}
	st := a.reqs[req]
	if st == nil {
		if len(a.reqs) >= maxOpenReqs {
			a.evictOldestReq()
		}
		st = &reqState{}
		a.reqs[req] = st
		a.reqOrder = append(a.reqOrder, req)
	}
	st.cats[c] += d
}

// evictOldestReq drops the oldest still-open request state (a straggler
// whose root never arrived, e.g. a kernel-task round).
func (a *Attribution) evictOldestReq() {
	for len(a.reqOrder) > 0 {
		req := a.reqOrder[0]
		a.reqOrder = a.reqOrder[1:]
		if _, open := a.reqs[req]; open {
			delete(a.reqs, req)
			return
		}
	}
}

// finishRequest folds a completed syscall into its (pid, op) group and the
// aggregate histograms. Kernel-task roots never appear at the syscall
// layer, but guard anyway: blame tables are about user requests.
func (a *Attribution) finishRequest(root trace.Event) {
	var st reqState
	if root.Req != 0 {
		if open := a.reqs[root.Req]; open != nil {
			st = *open
			delete(a.reqs, root.Req)
		}
	}
	if root.PID < userPIDBase {
		return
	}
	total := root.Dur()
	st.cats[CatTotal] = total
	known := st.cats[CatThrottle] + st.cats[CatJournal] + st.cats[CatQueue] + st.cats[CatDevice]
	other := total - known
	if other < 0 {
		// Overlapping descendant spans (several block requests of one
		// syscall in flight together) can sum past the wall time; clamp so
		// the remainder never goes negative.
		other = 0
	}
	st.cats[CatOther] = other
	key := groupKey{pid: root.PID, op: root.Op}
	g := a.groups[key]
	if g == nil {
		g = &group{key: key}
		a.groups[key] = g
		a.groupOrder = append(a.groupOrder, key)
	}
	g.n++
	for c := range st.cats {
		g.sum[c] += st.cats[c]
		a.agg[c].Add(st.cats[c])
	}
	g.total.Add(total)
	a.requests++
}

// noteFlush tracks data flushes for the two delegation detectors:
// journal-driven flushes (Txn != 0) feed ordered-flush detection keyed by
// transaction; kernel-task background/sync writeback feeds throttle
// overlap. A user process flushing its own file is neither.
func (a *Attribution) noteFlush(ev trace.Event) {
	if ev.Txn != 0 {
		ts := a.txns[ev.Txn]
		if ts == nil {
			if len(a.txnOrder) >= maxTxnsTracked {
				oldest := a.txnOrder[0]
				a.txnOrder = a.txnOrder[1:]
				delete(a.txns, oldest)
			}
			ts = &txnState{}
			a.txns[ev.Txn] = ts
			a.txnOrder = append(a.txnOrder, ev.Txn)
		}
		if len(ts.flushes) < maxFlushesPerTxn {
			ts.flushes = append(ts.flushes, txnFlush{cs: ev.Causes, dur: ev.Dur()})
		}
		return
	}
	if ev.PID < userPIDBase && ev.Dur() > 0 {
		a.wb = append(a.wb, wbSpan{start: ev.Start, end: ev.End, cs: ev.Causes})
		if len(a.wb) > maxWritebackSpans {
			a.wb = a.wb[len(a.wb)-maxWritebackSpans:]
		}
	}
}

// culpritAcc accumulates per-culprit durations in first-seen order, then
// emits sorted by PID so inversion order is independent of accumulation
// order.
type culpritAcc struct {
	pids []causes.PID
	durs []time.Duration
}

func (c *culpritAcc) add(pid causes.PID, d time.Duration) {
	for i, have := range c.pids {
		if have == pid {
			c.durs[i] += d
			return
		}
	}
	c.pids = append(c.pids, pid)
	c.durs = append(c.durs, d)
}

func (c *culpritAcc) each(fn func(pid causes.PID, d time.Duration)) {
	idx := make([]int, len(c.pids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return c.pids[idx[i]] < c.pids[idx[j]] })
	for _, i := range idx {
		fn(c.pids[i], c.durs[i])
	}
}

// detectCommit flags shared-transaction and ordered-flush entanglement on a
// commit-wait span: the span's Causes are the awaited transaction's cause
// set, so any other user PID in it means the victim's durability barrier
// covered foreign updates.
func (a *Attribution) detectCommit(ev trace.Event) {
	victim := ev.PID
	if victim < userPIDBase || ev.Dur() <= 0 {
		return
	}
	for _, pid := range ev.Causes.PIDs() {
		if pid == victim || pid < userPIDBase {
			continue
		}
		a.record(Inversion{
			Kind: KindTxnCommit, Victim: victim, Culprit: pid,
			Layer: trace.LayerFS, Dur: ev.Dur(), At: ev.Start,
			Txn: ev.Txn, Req: ev.Req,
		})
	}
	ts := a.txns[ev.Txn]
	if ts == nil {
		return
	}
	var acc culpritAcc
	for _, fl := range ts.flushes {
		for _, pid := range fl.cs.PIDs() {
			if pid == victim || pid < userPIDBase {
				continue
			}
			acc.add(pid, fl.dur)
		}
	}
	acc.each(func(pid causes.PID, d time.Duration) {
		// The flush may predate this victim's wait (a second fsync joining a
		// commit already in flight); never blame more than the wait itself.
		if d > ev.Dur() {
			d = ev.Dur()
		}
		a.record(Inversion{
			Kind: KindOrderedFlush, Victim: victim, Culprit: pid,
			Layer: trace.LayerFS, Dur: d, At: ev.Start,
			Txn: ev.Txn, Req: ev.Req,
		})
	})
}

// detectWriteback flags writeback delegation on a throttle span: the
// victim stalled on the dirty ratio while recent kernel-task flushes
// overlapping the stall drained pages owned by other processes.
func (a *Attribution) detectWriteback(ev trace.Event) {
	victim := ev.PID
	if victim < userPIDBase || ev.Dur() <= 0 {
		return
	}
	var acc culpritAcc
	for _, span := range a.wb {
		start := span.start
		if ev.Start > start {
			start = ev.Start
		}
		end := span.end
		if ev.End < end {
			end = ev.End
		}
		if end <= start {
			continue
		}
		overlap := end.Sub(start)
		for _, pid := range span.cs.PIDs() {
			if pid == victim || pid < userPIDBase {
				continue
			}
			acc.add(pid, overlap)
		}
	}
	acc.each(func(pid causes.PID, d time.Duration) {
		if d > ev.Dur() {
			d = ev.Dur()
		}
		a.record(Inversion{
			Kind: KindWriteback, Victim: victim, Culprit: pid,
			Layer: trace.LayerCache, Dur: d, At: ev.Start, Req: ev.Req,
		})
	})
}

// detectGCStall flags GC entanglement on a gc-wait span: a sync request's
// device service was extended by the garbage collector holding its die.
// The victim is the submitter when it is a user process; journal writes
// are submitted by jbd, so the detector falls back to the first user PID
// in the request's cause set (whose durability the commit serves). The
// culprit is the GC pseudo-process itself — device-internal work, not any
// user process, which is exactly what makes the inversion invisible to
// cause-blind schedulers.
func (a *Attribution) detectGCStall(ev trace.Event) {
	if ev.Dur() <= 0 || !ev.Flags.Has(trace.FlagSync) {
		return
	}
	victim := ev.PID
	if victim < userPIDBase {
		victim = 0
		for _, pid := range ev.Causes.PIDs() {
			if pid >= userPIDBase {
				victim = pid
				break
			}
		}
		if victim == 0 {
			return
		}
	}
	a.record(Inversion{
		Kind: KindGCStall, Victim: victim, Culprit: gcPID,
		Layer: trace.LayerDevice, Dur: ev.Dur(), At: ev.Start, Req: ev.Req,
	})
}

func (a *Attribution) record(inv Inversion) {
	a.kindCount[inv.Kind]++
	a.kindDur[inv.Kind] += inv.Dur
	if len(a.inversions) < maxInversionsKept {
		a.inversions = append(a.inversions, inv)
	}
}

// Requests returns the number of finished user requests attributed.
func (a *Attribution) Requests() int64 { return a.requests }

// Inversions returns the retained inversion records in detection order (at
// most maxInversionsKept; the per-kind counters are never capped).
func (a *Attribution) Inversions() []Inversion {
	return append([]Inversion(nil), a.inversions...)
}

// InversionCount returns how many inversions of kind k were detected.
func (a *Attribution) InversionCount(k Kind) int64 { return a.kindCount[k] }

// InversionTime returns the total victim time attributed to kind k.
func (a *Attribution) InversionTime(k Kind) time.Duration { return a.kindDur[k] }

// TotalInversions returns the count across all kinds.
func (a *Attribution) TotalInversions() int64 {
	var n int64
	for _, c := range a.kindCount {
		n += c
	}
	return n
}

// Aggregate returns the run-wide histogram for one category (one sample
// per finished user request).
func (a *Attribution) Aggregate(c Category) *metrics.Histogram { return a.agg[c] }

// Hist returns the total-latency histogram of one (pid, op) group, or nil
// if no such request finished. Use it with Histogram.Quantiles for budget
// assertions.
func (a *Attribution) Hist(pid causes.PID, op string) *metrics.Histogram {
	g := a.groups[groupKey{pid: pid, op: op}]
	if g == nil {
		return nil
	}
	return &g.total
}
