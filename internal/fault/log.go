package fault

import (
	"splitio/internal/device"
	"splitio/internal/sim"
)

// Record is one acknowledged media write as observed by the fault device.
// Seq is the record's index in Log.Records; because the block dispatcher
// serves one request at a time, sequence order is exactly media order.
type Record struct {
	Seq    int64
	At     sim.Time // acknowledgement (service completion) time
	LBA    int64
	Blocks int

	// Semantic tags mirrored from the block request via device.Request.
	Sync    bool
	Journal bool
	Meta    bool
	Barrier bool
	FileID  int64
	TxnID   int64
	Pages   device.PageRange

	// Torn > 0 marks a plan-torn write: if a crash catches it in the
	// volatile window, only the first Torn blocks persist. A write flushed
	// by a later barrier persists fully — tearing is an in-flight hazard.
	Torn int
	// Lost marks a write the device acknowledged but never persisted; it is
	// absent from every crash image, barriers notwithstanding.
	Lost bool
}

// Mark is one fsync durability promise: when the file system acknowledged an
// fsync of Ino, it had flushed everything up to media-write sequence UpTo,
// and the acknowledgement itself happened at sequence AckSeq. The promise
// binds only crash points at or after AckSeq (an fsync that never returned
// promised nothing).
type Mark struct {
	Ino    int64
	UpTo   int64
	AckSeq int64
}

// ReadFault is one injected latent sector read error.
type ReadFault struct {
	At  sim.Time
	LBA int64
}

// Log is the persistence log one fault device records over a run.
type Log struct {
	Records    []Record
	Marks      []Mark
	ReadFaults []ReadFault
	// CutIndex is the number of records issued before the planned power cut
	// (-1 when the plan never fired). It is one designated crash point; the
	// checker sweeps many more post hoc.
	CutIndex int
}

// NewLog returns an empty log with no power cut.
func NewLog() *Log { return &Log{CutIndex: -1} }

// LastBarrier returns the index of the last effective flush barrier among
// Records[:cut], or -1 if none. A lost barrier write does not flush: the
// device lied about the commit record, so it cannot have drained its cache.
func (l *Log) LastBarrier(cut int) int {
	if cut > len(l.Records) {
		cut = len(l.Records)
	}
	for i := cut - 1; i >= 0; i-- {
		r := &l.Records[i]
		if r.Barrier && !r.Lost {
			return i
		}
	}
	return -1
}
