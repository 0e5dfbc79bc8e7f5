package crash

import (
	"reflect"
	"testing"

	"splitio/internal/device"
	"splitio/internal/fault"
	"splitio/internal/sim"
)

// synthLog builds a hand-written persistence log mirroring the ext4sim write
// pattern: three transactions (two ordered data flushes, a descriptor, a
// barrier commit record each), an fsync mark acknowledged after txn 2, and
// two volatile tail writes past the last barrier.
//
//	seq  0,1   data ino 7, txn 1 (pages 0..3)
//	seq  2,3   desc + commit, txn 1
//	seq  4,5   data ino 7, txn 2 (pages 4..7)
//	seq  6,7   desc + commit, txn 2    — fsync(7) acked here (UpTo=6, Ack=8)
//	seq  8,9   data ino 7, txn 3 (pages 8..11)
//	seq 10,11  desc + commit, txn 3
//	seq 12,13  data ino 8, untagged tail (12 is plan-torn)
func synthLog() *fault.Log {
	l := fault.NewLog()
	add := func(r fault.Record) {
		r.Seq = int64(len(l.Records))
		r.At = sim.Time(r.Seq + 1)
		l.Records = append(l.Records, r)
	}
	for txn := int64(1); txn <= 3; txn++ {
		base := (txn - 1) * 4
		add(fault.Record{LBA: 100 + base, Blocks: 2, FileID: 7, TxnID: txn,
			Pages: device.PageRange{First: base, N: 2}})
		add(fault.Record{LBA: 102 + base, Blocks: 2, FileID: 7, TxnID: txn,
			Pages: device.PageRange{First: base + 2, N: 2}})
		add(fault.Record{LBA: 5000 + txn*4, Blocks: 2, Journal: true, Meta: true, Sync: true, TxnID: txn})
		add(fault.Record{LBA: 5002 + txn*4, Blocks: 1, Journal: true, Sync: true, Barrier: true, TxnID: txn})
		if txn == 2 {
			l.Marks = append(l.Marks, fault.Mark{Ino: 7, UpTo: 6, AckSeq: 8})
		}
	}
	add(fault.Record{LBA: 200, Blocks: 2, FileID: 8, Pages: device.PageRange{First: 0, N: 2}, Torn: 1})
	add(fault.Record{LBA: 202, Blocks: 2, FileID: 8, Pages: device.PageRange{First: 2, N: 2}})
	l.CutIndex = 13
	return l
}

func ext4Cfg() Config {
	return Config{FSName: "ext4sim", JournalStart: 5000, JournalBlocks: 64}
}

func cowCfg() Config {
	return Config{FSName: "cowsim", CopyOnWrite: true, JournalStart: 5000, JournalBlocks: 64}
}

func countByInvariant(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Invariant]++
	}
	return out
}

func TestLegalImagesHaveNoViolations(t *testing.T) {
	for _, cfg := range []Config{ext4Cfg(), cowCfg()} {
		ck := NewChecker(synthLog(), cfg)
		if vs := ck.Sweep(0, 8, 1); len(vs) != 0 {
			t.Errorf("%s: legal crash images produced %d violations, first: %s",
				cfg.FSName, len(vs), vs[0])
		}
		if ck.ImagesChecked == 0 || ck.CutsSwept == 0 {
			t.Errorf("%s: sweep checked nothing (cuts=%d images=%d)",
				cfg.FSName, ck.CutsSwept, ck.ImagesChecked)
		}
	}
}

func TestLostDataBehindCommitViolatesOrdering(t *testing.T) {
	l := synthLog()
	l.Records[0].Lost = true // txn 1 data, before a durable commit
	ck := NewChecker(l, ext4Cfg())
	vs := ck.Sweep(0, 8, 1)
	if countByInvariant(vs)[InvOrderedJournal] == 0 {
		t.Fatalf("lost pre-commit data not flagged; got %v", countByInvariant(vs))
	}
}

func TestLostDescriptorViolatesCommittedTxn(t *testing.T) {
	l := synthLog()
	l.Records[6].Lost = true // txn 2 descriptor; its commit record is durable
	ck := NewChecker(l, ext4Cfg())
	vs := ck.Sweep(0, 8, 1)
	if countByInvariant(vs)[InvCommittedComplete] == 0 {
		t.Fatalf("lost descriptor of committed txn not flagged; got %v", countByInvariant(vs))
	}
}

func TestLostFsyncedDataViolatesDurability(t *testing.T) {
	l := synthLog()
	l.Records[4].Lost = true // txn 2 data, covered by the fsync mark (seq < 6)
	ck := NewChecker(l, ext4Cfg())
	vs := ck.Sweep(0, 8, 1)
	if countByInvariant(vs)[InvFsyncDurability] == 0 {
		t.Fatalf("lost fsync-acked data not flagged; got %v", countByInvariant(vs))
	}
	// The mark binds only crash points at or after the acknowledgement.
	for _, v := range vs {
		if v.Invariant == InvFsyncDurability && v.Cut < 8 {
			t.Errorf("fsync violation reported at cut %d, before the ack at seq 8", v.Cut)
		}
	}
}

func TestLostCheckpointDataDanglesOnCOW(t *testing.T) {
	l := synthLog()
	l.Records[0].Lost = true
	ck := NewChecker(l, cowCfg())
	vs := ck.Sweep(0, 8, 1)
	if countByInvariant(vs)[InvCowDangling] == 0 {
		t.Fatalf("lost checkpoint-referenced data not flagged; got %v", countByInvariant(vs))
	}
}

func TestRewrittenDataIsSuperseded(t *testing.T) {
	// Lose txn 1's first data write, but let txn 3 rewrite the same pages of
	// the same file: once the rewrite is behind a barrier (cut >= 12, past
	// txn 3's commit) the newer durable copy supersedes the lost one, so no
	// ordering or fsync violation should fire for it. At earlier cuts the
	// rewrite is volatile and may itself be dropped, so flagging is correct.
	l := synthLog()
	l.Records[0].Lost = true
	l.Records[8].Pages = device.PageRange{First: 0, N: 2} // txn 3 rewrites pages 0,1 of ino 7
	ck := NewChecker(l, ext4Cfg())
	vs := ck.Sweep(0, 8, 1)
	for _, v := range vs {
		if v.Seq == 0 && v.Cut >= 12 {
			t.Errorf("superseded record still flagged: %s", v)
		}
	}
	// And at cuts before the rewrite is durable, the loss must be flagged.
	flagged := false
	for _, v := range vs {
		if v.Seq == 0 && v.Cut < 12 {
			flagged = true
		}
	}
	if !flagged {
		t.Error("lost record with volatile rewrite was not flagged at any early cut")
	}

	// Record 5 (pages 6..8) keeps only its first block. The later writes 8
	// and 9 each persist only their first page: pages 7 and 8 together
	// cover the missing tail, so nothing is reported for record 5. When
	// write 9 starts at page 9 instead, page 8 stays uncovered and the loss
	// must be reported.
	for _, tc := range []struct {
		name   string
		second int64 // write 9's first page
		want   bool  // record 5 reported
	}{
		{"joint-cover", 8, false},
		{"uncovered-page", 9, true},
	} {
		l := synthLog()
		l.Records[5].Blocks, l.Records[5].Pages = 3, device.PageRange{First: 6, N: 3}
		l.Records[8].Pages = device.PageRange{First: 7, N: 2}
		l.Records[9].Pages = device.PageRange{First: tc.second, N: 2}
		ck := NewChecker(l, ext4Cfg())
		ck.CheckImage(Image{Cut: 12, Partial: map[int64]int{5: 1, 8: 1, 9: 1}, Label: tc.name})
		reported := false
		for _, v := range ck.Violations {
			reported = reported || v.Seq == 5
		}
		if reported != tc.want {
			t.Errorf("%s: record 5 reported = %v, want %v; violations %v", tc.name, reported, tc.want, ck.Violations)
		}
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	for _, cfg := range []Config{ext4Cfg(), cowCfg()} {
		l := synthLog()
		l.Records[6].Lost = true // force recovery to actually drop something
		ck := NewChecker(l, cfg)
		for _, cut := range Cuts(l, 0) {
			for _, img := range ImagesAt(l, cut, 8, 1) {
				rec := ck.Recover(img)
				r2 := ck.Recover(rec.Image())
				if !rec.same(r2) {
					t.Fatalf("%s: recover(recover(img)) != recover(img) at cut=%d image=%s:\n%+v\n--- vs ---\n%+v",
						cfg.FSName, cut, img.Label, rec, r2)
				}
			}
		}
	}
}

// TestRecoverySame pins what the idempotence check compares: every field of
// the outcome and the post-recovery image, with nil and empty lists equal.
// The image already lost record 10, so dropping it again leaves the
// post-recovery image unchanged: only the Dropped lists tell the pair apart.
func TestRecoverySame(t *testing.T) {
	base := func() *Recovered {
		return &Recovered{
			FSName: "ext4sim", Committed: []int64{1, 2}, HeadSeq: 7, Dropped: []int64{8, 9},
			img: Image{Cut: 11, Partial: map[int64]int{5: 1, 10: 0}},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(a, b *Recovered)
		want bool
	}{
		{"identical", func(_, _ *Recovered) {}, true},
		{"nil-vs-empty-dropped", func(a, b *Recovered) { a.Dropped, b.Dropped = []int64{}, nil }, true},
		{"head-seq", func(_, b *Recovered) { b.HeadSeq = 3 }, false},
		{"one-more-committed", func(_, b *Recovered) { b.Committed = append(b.Committed, 3) }, false},
		{"one-more-dropped", func(_, b *Recovered) { b.Dropped = append(b.Dropped, 10) }, false},
		{"post-image-partial", func(_, b *Recovered) { b.img.Partial = map[int64]int{5: 2, 10: 0} }, false},
	} {
		a, b := base(), base()
		tc.edit(a, b)
		if got := a.same(b); got != tc.want {
			t.Errorf("%s: same = %v, want %v", tc.name, got, tc.want)
		}
		if got := b.same(a); got != tc.want {
			t.Errorf("%s (reversed): same = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCutsDeterministicAndBounded(t *testing.T) {
	l := synthLog()
	a := Cuts(l, 0)
	if !reflect.DeepEqual(a, Cuts(l, 0)) {
		t.Fatal("Cuts is not deterministic")
	}
	// Before/after each of 3 barriers, the plan's cut, and the end.
	if a[len(a)-1] != len(l.Records) {
		t.Errorf("Cuts must include the end of the run; got %v", a)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("Cuts not strictly increasing: %v", a)
		}
	}
	b := Cuts(l, 3)
	if len(b) > 3 {
		t.Errorf("Cuts(3) returned %d points: %v", len(b), b)
	}
	if b[0] != a[0] || b[len(b)-1] != a[len(a)-1] {
		t.Errorf("sampled cuts must keep first and last: %v vs %v", b, a)
	}
}

func TestImagesAtDeterministic(t *testing.T) {
	l := synthLog()
	cut := len(l.Records)
	a := ImagesAt(l, cut, 10, 5)
	b := ImagesAt(l, cut, 10, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ImagesAt is not deterministic")
	}
	if len(a) != 10 {
		t.Errorf("budget 10 yielded %d images", len(a))
	}
	labels := map[string]bool{}
	for _, img := range a {
		if labels[img.Label] {
			t.Errorf("duplicate image label %q", img.Label)
		}
		labels[img.Label] = true
	}
	if !labels["all"] || !labels["none"] || !labels["torn@12"] {
		t.Errorf("expected all/none/torn@12 images, got %v", labels)
	}
	if c := ImagesAt(l, cut, 10, 6); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical random images (suspicious)")
	}
}
