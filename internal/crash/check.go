package crash

import (
	"fmt"

	"splitio/internal/fault"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// Invariant names, as reported in Violation.Invariant.
const (
	InvCommittedComplete = "committed-txn-complete"
	InvOrderedJournal    = "ordered-journaling"
	InvFsyncDurability   = "fsync-durability"
	InvCowDangling       = "cow-dangling-pointer"
	InvIdempotent        = "recovery-idempotence"
)

// Violation is one invariant breach found in one crash image.
type Violation struct {
	Invariant string
	// Cut and Image identify the crash image (Image is its label).
	Cut   int
	Image string
	// Seq is the media-write record the violation concerns.
	Seq    int64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at cut=%d image=%s seq=%d: %s",
		v.Invariant, v.Cut, v.Image, v.Seq, v.Detail)
}

// Checker sweeps crash images over a fault log and accumulates violations.
type Checker struct {
	Log *fault.Log
	Cfg Config
	// Tracer receives crash-image and recovery spans (trace.Nop by default).
	Tracer *trace.Tracer

	CutsSwept     int64
	ImagesChecked int64
	// Replays counts transaction replays performed across all recoveries.
	Replays    int64
	Violations []Violation
}

// NewChecker returns a checker over log for a file system described by cfg.
func NewChecker(log *fault.Log, cfg Config) *Checker {
	return &Checker{Log: log, Cfg: cfg, Tracer: trace.Nop}
}

// Sweep enumerates crash points (at most maxCuts) and images (at most budget
// per cut) and checks every one, returning the accumulated violations.
func (c *Checker) Sweep(maxCuts, budget int, seed int64) []Violation {
	for _, cut := range Cuts(c.Log, maxCuts) {
		c.CutsSwept++
		for _, img := range ImagesAt(c.Log, cut, budget, seed) {
			c.CheckImage(img)
		}
	}
	return c.Violations
}

// CheckImage recovers one crash image and checks every invariant against the
// recovered state, appending violations to c.Violations.
func (c *Checker) CheckImage(img Image) {
	c.ImagesChecked++
	rec := c.Recover(img)
	c.Replays += int64(len(rec.Committed))
	c.traceImage(img, rec)

	recs := c.Log.Records
	// Durable commit records: which transactions the image claims committed,
	// and the newest such commit (everything before it is pre-barrier).
	lastCommit := int64(-1)
	committed := make(map[int64]bool)
	for i := range recs {
		r := &recs[i]
		if r.Journal && r.Barrier && r.TxnID != 0 &&
			r.Seq < int64(img.Cut) && img.Persisted(r) == r.Blocks {
			committed[r.TxnID] = true
			if r.Seq > lastCommit {
				lastCommit = r.Seq
			}
		}
	}
	dropped := make(map[int64]bool, len(rec.Dropped))
	for _, s := range rec.Dropped {
		dropped[s] = true
	}

	// Deviations: records the image or recovery lost, wholly or partly.
	// Inside the volatile window every drop is legal device behavior; the
	// invariants below only fire when a deviation contradicts a durability
	// claim (a durable commit, an fsync ack), which legal reorderings cannot
	// reach — only device lies and recovery bugs can.
	type deviation struct {
		r    *fault.Record
		kept int // blocks surviving both the image and recovery
	}
	var devs []deviation
	for i := range recs {
		r := &recs[i]
		if r.Seq >= int64(img.Cut) {
			break
		}
		kept := img.Persisted(r)
		if dropped[r.Seq] {
			kept = 0
		}
		if kept < r.Blocks {
			devs = append(devs, deviation{r, kept})
		}
	}

	report := func(inv string, seq int64, detail string) {
		c.Violations = append(c.Violations, Violation{
			Invariant: inv, Cut: img.Cut, Image: img.Label, Seq: seq, Detail: detail,
		})
	}

	for _, d := range devs {
		r := d.r
		if r.Journal {
			if r.TxnID != 0 && !r.Barrier && committed[r.TxnID] &&
				!c.journalSuperseded(img, r, d.kept) {
				report(InvCommittedComplete, r.Seq, fmt.Sprintf(
					"journal write of committed txn %d persisted %d/%d blocks",
					r.TxnID, d.kept, r.Blocks))
			}
			continue
		}
		if r.Seq < lastCommit && !c.dataSuperseded(img, r, d.kept, dropped) {
			report(InvOrderedJournal, r.Seq, fmt.Sprintf(
				"data write (ino %d) persisted %d/%d blocks behind durable commit at seq %d",
				r.FileID, d.kept, r.Blocks, lastCommit))
		}
		if c.Cfg.CopyOnWrite && r.TxnID != 0 && committed[r.TxnID] &&
			!c.dataSuperseded(img, r, d.kept, dropped) {
			report(InvCowDangling, r.Seq, fmt.Sprintf(
				"checkpoint %d references ino %d blocks persisted %d/%d",
				r.TxnID, r.FileID, d.kept, r.Blocks))
		}
	}

	for _, m := range c.Log.Marks {
		if m.AckSeq > int64(img.Cut) {
			continue // the fsync never returned before this crash point
		}
		for _, d := range devs {
			r := d.r
			if r.Journal || r.FileID != m.Ino || r.Seq >= m.UpTo || r.Pages.N == 0 {
				continue
			}
			if !c.dataSuperseded(img, r, d.kept, dropped) {
				report(InvFsyncDurability, r.Seq, fmt.Sprintf(
					"fsync-acked write (ino %d, acked at seq %d) persisted %d/%d blocks",
					m.Ino, m.AckSeq, d.kept, r.Blocks))
			}
		}
	}

	if !rec.same(c.Recover(rec.Image())) {
		report(InvIdempotent, rec.HeadSeq, "second recovery changed the recovered state")
	}
}

// journalSuperseded reports whether every missing block of journal record r
// is overwritten by a later durable journal write in the image — the
// journal-region wrap reclaiming old transactions' blocks.
func (c *Checker) journalSuperseded(img Image, r *fault.Record, kept int) bool {
	return c.superseded(img, r, kept, func(o *fault.Record) bool { return o.Journal })
}

// dataSuperseded reports whether every missing page (or block) of data record
// r was rewritten by a later write of the same file that survived both the
// image and recovery.
func (c *Checker) dataSuperseded(img Image, r *fault.Record, kept int, dropped map[int64]bool) bool {
	return c.superseded(img, r, kept, func(o *fault.Record) bool {
		return !o.Journal && o.FileID == r.FileID && !dropped[o.Seq]
	})
}

// superseded reports whether the persisted prefixes of the later records in
// the image that match eligible together cover r's missing part, the blocks
// or pages from kept on. Page-tagged records match on pages; untagged ones
// (journal, GC/relocation) on LBAs.
func (c *Checker) superseded(img Image, r *fault.Record, kept int, eligible func(*fault.Record) bool) bool {
	span := func(o *fault.Record) (int64, int64) { return o.LBA, int64(o.Blocks) }
	if r.Pages.N > 0 {
		span = func(o *fault.Record) (int64, int64) { return o.Pages.First, o.Pages.N }
	}
	first, n := span(r)
	// Record.Seq is the record's index, so the later records in the image
	// are one slice.
	later := c.Log.Records[r.Seq+1 : min(img.Cut, len(c.Log.Records))]
next:
	for lo := first + min(int64(kept), n); lo < first+n; {
		for i := range later {
			o := &later[i]
			if !eligible(o) {
				continue
			}
			if oFirst, on := span(o); oFirst <= lo && lo < oFirst+min(int64(img.Persisted(o)), on) {
				lo = oFirst + min(int64(img.Persisted(o)), on) // covered up to o's persisted end
				continue next
			}
		}
		return false
	}
	return true
}

// traceImage emits the crash-image and recovery spans for one checked image,
// timestamped at the last media write the image contains.
func (c *Checker) traceImage(img Image, rec *Recovered) {
	if !c.Tracer.Enabled() {
		return
	}
	var at sim.Time
	if img.Cut > 0 && img.Cut <= len(c.Log.Records) {
		at = c.Log.Records[img.Cut-1].At
	}
	c.Tracer.Record(trace.Event{
		Layer: trace.LayerDevice, Op: trace.OpCrashImage, Label: img.Label,
		Start: at, End: at, LBA: int64(img.Cut), Blocks: len(img.Partial),
	})
	c.Tracer.Record(trace.Event{
		Layer: trace.LayerFS, Op: trace.OpRecover, Label: rec.FSName,
		Start: at, End: at, Ino: rec.HeadSeq, Blocks: len(rec.Committed),
	})
}

// RegisterMetrics adds the checker's standard gauges to reg.
func (c *Checker) RegisterMetrics(reg *metrics.Registry) {
	reg.Gauge("crash.cuts_swept", func() float64 { return float64(c.CutsSwept) })
	reg.Gauge("crash.images_checked", func() float64 { return float64(c.ImagesChecked) })
	reg.Gauge("crash.recovery_replays", func() float64 { return float64(c.Replays) })
	reg.Gauge("crash.violations", func() float64 { return float64(len(c.Violations)) })
}
