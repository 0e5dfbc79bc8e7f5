// Package crash is the crash-consistency checker over the fault plane's
// persistence log (internal/fault). It is post-hoc analysis, not simulation:
// after a run, it enumerates legal persisted crash images — every
// barrier-respecting prefix of the media-write stream plus subsets and torn
// prefixes of the unacknowledged volatile window — runs the file system's
// recovery procedure against each image (ext4sim journal replay or cowsim
// checkpoint rollback), and checks the durability invariants the stack
// advertises:
//
//   - committed-txn-complete: every journal transaction whose commit record
//     is durable has its full descriptor and journal payload durable.
//   - ordered-journaling: in ordered mode, file data flushed by a commit is
//     durable before the commit record that made its metadata visible.
//   - fsync-durability: data covered by an acknowledged fsync survives every
//     crash point after the acknowledgement.
//   - cow-dangling-pointer: a copy-on-write checkpoint never references
//     blocks that did not persist.
//   - recovery-idempotence: recovering an already-recovered image is a
//     no-op (recover(recover(img)) == recover(img)).
//
// Power cuts and torn writes are legal device behavior and must produce zero
// violations on a correct file system; silently lost writes are device lies,
// and the checker's job is to detect the corruption they cause.
package crash

import (
	"fmt"
	"math/rand"
	"slices"

	"splitio/internal/fault"
	"splitio/internal/fs"
)

// Config describes the file-system geometry the checker needs to interpret
// the log.
type Config struct {
	// FSName labels reports ("ext4sim" or "cowsim").
	FSName string
	// CopyOnWrite selects checkpoint-rollback recovery instead of journal
	// replay.
	CopyOnWrite bool
	// JournalStart and JournalBlocks locate the journal region on disk, used
	// to cross-check that journal-tagged writes landed inside it.
	JournalStart  int64
	JournalBlocks int64
}

// ConfigFor derives a checker Config from a live file system.
func ConfigFor(fsys *fs.FS) Config {
	start, blocks := fsys.JournalRegion()
	cfg := Config{
		FSName:        "ext4sim",
		CopyOnWrite:   fsys.IsCopyOnWrite(),
		JournalStart:  start,
		JournalBlocks: blocks,
	}
	if cfg.CopyOnWrite {
		cfg.FSName = "cowsim"
	}
	return cfg
}

// Image is one persisted crash image: the crash point Cut (records with
// Seq >= Cut never happened) plus per-record deviations inside the volatile
// window. Partial maps a record's Seq to how many of its leading blocks
// persisted (0 = the write vanished entirely). Records not in Partial and
// below Cut persisted fully — unless the device lied (Record.Lost), which
// overrides everything.
type Image struct {
	Cut     int
	Partial map[int64]int
	Label   string
}

// Persisted returns how many leading blocks of rec are present in the image.
func (img *Image) Persisted(rec *fault.Record) int {
	if rec.Lost || rec.Seq >= int64(img.Cut) {
		return 0
	}
	if n, ok := img.Partial[rec.Seq]; ok {
		return n
	}
	return rec.Blocks
}

// Cuts selects the crash points to sweep: immediately before and after every
// effective barrier (where the durable/volatile boundary moves), the plan's
// own power-cut point, and the end of the run. If the log has more candidate
// points than maxCuts, they are sampled evenly, always keeping the first and
// last.
func Cuts(log *fault.Log, maxCuts int) []int {
	cuts := []int{len(log.Records)}
	for i := range log.Records {
		r := &log.Records[i]
		if r.Barrier && !r.Lost {
			cuts = append(cuts, i, i+1)
		}
	}
	if log.CutIndex >= 0 {
		cuts = append(cuts, log.CutIndex)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	if maxCuts <= 0 || len(cuts) <= maxCuts {
		return cuts
	}
	if maxCuts == 1 {
		return []int{cuts[len(cuts)-1]}
	}
	sampled := make([]int, 0, maxCuts)
	for i := 0; i < maxCuts; i++ {
		sampled = append(sampled, cuts[i*(len(cuts)-1)/(maxCuts-1)])
	}
	// The stride formula can repeat indices when maxCuts is close to
	// len(cuts).
	return slices.Compact(sampled)
}

// ImagesAt enumerates persisted images for one crash point: the full prefix,
// the empty volatile window, targeted single-record drops, torn prefixes for
// plan-torn records, and seeded random window subsets up to budget images
// total. Enumeration is deterministic for a fixed (log, cut, budget, seed).
func ImagesAt(log *fault.Log, cut, budget int, seed int64) []Image {
	images := []Image{{Cut: cut, Label: "all"}}
	lb := log.LastBarrier(cut)
	var window []*fault.Record
	for i := lb + 1; i < cut && i < len(log.Records); i++ {
		if !log.Records[i].Lost {
			window = append(window, &log.Records[i])
		}
	}
	if len(window) == 0 {
		return images
	}

	none := make(map[int64]int, len(window))
	for _, r := range window {
		none[r.Seq] = 0
	}
	images = append(images, Image{Cut: cut, Partial: none, Label: "none"})

	for _, i := range slices.Compact([]int{0, len(window) / 2, len(window) - 1}) {
		r := window[i]
		images = append(images, Image{
			Cut: cut, Partial: map[int64]int{r.Seq: 0},
			Label: fmt.Sprintf("drop@%d", r.Seq),
		})
	}
	torn := 0
	for _, r := range window {
		if r.Torn > 0 && torn < 2 {
			torn++
			images = append(images, Image{
				Cut: cut, Partial: map[int64]int{r.Seq: r.Torn},
				Label: fmt.Sprintf("torn@%d", r.Seq),
			})
		}
	}

	rng := rand.New(rand.NewSource(seed ^ int64(cut)<<20))
	for len(images) < budget {
		part := make(map[int64]int)
		for _, r := range window {
			switch {
			case rng.Float64() < 0.4:
				part[r.Seq] = 0
			case r.Torn > 0 && rng.Float64() < 0.5:
				part[r.Seq] = r.Torn
			}
		}
		images = append(images, Image{
			Cut: cut, Partial: part,
			Label: fmt.Sprintf("rand%d", len(images)),
		})
	}
	return images
}
