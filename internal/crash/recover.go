package crash

import (
	"maps"
	"slices"
)

// Recovered is the outcome of running the file system's recovery procedure
// against one crash image.
type Recovered struct {
	FSName string
	// Committed lists the transactions recovery replayed (ext4sim journal
	// replay) or the checkpoints at or before the recovery head (cowsim), in
	// commit order.
	Committed []int64
	// HeadSeq is the media-write sequence of the newest replayable commit
	// record, or -1 when recovery found none and fell back to the last
	// durable state before any journaling.
	HeadSeq int64
	// Dropped lists the record sequences recovery discarded: the journal tail
	// of unreplayable transactions (ext4sim) or everything past the recovery
	// head (cowsim checkpoint rollback).
	Dropped []int64

	img Image
}

// Image returns the post-recovery image: the input image with every dropped
// record erased. Recovering it again must change nothing (the idempotence
// invariant).
func (r *Recovered) Image() Image {
	part := make(map[int64]int, len(r.img.Partial)+len(r.Dropped))
	for s, n := range r.img.Partial {
		part[s] = n
	}
	for _, s := range r.Dropped {
		part[s] = 0
	}
	return Image{Cut: r.img.Cut, Partial: part, Label: r.img.Label + "+recovered"}
}

// same reports whether r and o are the same recovery outcome: the same file
// system, recovery head and crash point, the same committed and dropped
// records, and the same post-recovery image. Nil and empty lists are equal.
func (r *Recovered) same(o *Recovered) bool {
	return r.FSName == o.FSName && r.HeadSeq == o.HeadSeq && r.img.Cut == o.img.Cut &&
		slices.Equal(r.Committed, o.Committed) && slices.Equal(r.Dropped, o.Dropped) &&
		maps.Equal(r.Image().Partial, o.Image().Partial)
}

// Recover runs the configured recovery procedure against img.
//
// A transaction is replayable when its commit record (the barrier write) is
// fully durable in the image and its journal payload (descriptor + metadata)
// is either fully durable or superseded by later durable journal writes to
// the same blocks (journal-region wrap reclaim). Journal replay keeps data
// blocks as found and discards the journal tail of unreplayable transactions;
// checkpoint rollback (cowsim) additionally discards every write past the
// newest replayable checkpoint.
func (c *Checker) Recover(img Image) *Recovered {
	out := &Recovered{FSName: c.Cfg.FSName, HeadSeq: -1, img: img}
	recs := c.Log.Records

	// Index journal records per transaction, payload and commit separately.
	payload := make(map[int64][]int)
	var commits []int
	for i := range recs {
		r := &recs[i]
		if !r.Journal || r.TxnID == 0 || r.Seq >= int64(img.Cut) {
			continue
		}
		if r.Barrier {
			commits = append(commits, i)
		} else {
			payload[r.TxnID] = append(payload[r.TxnID], i)
		}
	}

	replayable := make(map[int64]bool)
	for _, ci := range commits {
		cr := &recs[ci]
		if img.Persisted(cr) < cr.Blocks {
			continue // commit record not durable: the txn never happened
		}
		ok := true
		for _, pi := range payload[cr.TxnID] {
			pr := &recs[pi]
			if kept := img.Persisted(pr); kept < pr.Blocks && !c.journalSuperseded(img, pr, kept) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		replayable[cr.TxnID] = true
		out.Committed = append(out.Committed, cr.TxnID)
		if cr.Seq > out.HeadSeq {
			out.HeadSeq = cr.Seq
		}
	}

	for i := range recs {
		r := &recs[i]
		if r.Seq >= int64(img.Cut) {
			break
		}
		if c.Cfg.CopyOnWrite {
			if r.Seq > out.HeadSeq {
				out.Dropped = append(out.Dropped, r.Seq)
			}
		} else if r.Journal && r.TxnID != 0 && !replayable[r.TxnID] {
			out.Dropped = append(out.Dropped, r.Seq)
		}
	}
	return out
}
