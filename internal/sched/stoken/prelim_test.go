package stoken

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/schedtest"
	"splitio/internal/tokenbucket"
)

// prelimCharge is one page's outstanding preliminary charge in refPrelim.
type prelimCharge struct {
	account string
	amount  float64
}

// refPrelim is Split-Token's memory-level accounting as it was with a hook
// call per page: a write estimate per fresh page and a map entry per
// outstanding charge. TestPrelimTableMatchesPerPage runs it beside the
// scheduler's per-chunk record.
type refPrelim struct {
	k          *core.Kernel
	accounts   map[string]*tokenbucket.Bucket
	pidAccount map[causes.PID]string
	est        *core.WriteEstimator
	lastIdx    map[int64]int64
	prelim     map[int64]map[int64]prelimCharge
	nprelim    int

	statPrelim, statRevised, statRefunds float64
}

func (r *refPrelim) bucketOf(cs causes.Set) (*tokenbucket.Bucket, string) {
	for _, pid := range cs.PIDs() {
		if a := r.pidAccount[pid]; a != "" {
			if b, ok := r.accounts[a]; ok {
				return b, a
			}
		}
	}
	return nil, ""
}

func (r *refPrelim) estimate(ino, idx int64) float64 {
	last, seen := r.lastIdx[ino]
	r.lastIdx[ino] = idx
	if d := idx - last; seen && (d > r.est.Window || d < -r.est.Window) {
		return r.est.RandBytes
	}
	return r.est.SeqBytes
}

func (r *refPrelim) bufferDirty(ino, idx int64, now, prev causes.Set) {
	if !prev.Empty() {
		return
	}
	amt := r.estimate(ino, idx)
	b, acct := r.bucketOf(now)
	if b == nil {
		return
	}
	b.Charge(r.k.Now(), amt)
	r.statPrelim += amt
	fp := r.prelim[ino]
	if fp == nil {
		fp = make(map[int64]prelimCharge)
		r.prelim[ino] = fp
	}
	if _, ok := fp[idx]; !ok {
		r.nprelim++
	}
	fp[idx] = prelimCharge{account: acct, amount: amt}
}

func (r *refPrelim) takePrelim(ino int64, idxs ...int64) (sum float64, account string) {
	fp := r.prelim[ino]
	if fp == nil {
		return 0, ""
	}
	for _, idx := range idxs {
		if pc, ok := fp[idx]; ok {
			sum += pc.amount
			account = pc.account
			delete(fp, idx)
			r.nprelim--
		}
	}
	if len(fp) == 0 {
		delete(r.prelim, ino)
	}
	return sum, account
}

func (r *refPrelim) bufferFree(ino, idx int64) {
	if amt, acct := r.takePrelim(ino, idx); acct != "" {
		if b, ok := r.accounts[acct]; ok {
			b.Refund(r.k.Now(), amt)
			r.statRefunds += amt
		}
	}
	delete(r.lastIdx, ino)
}

func (r *refPrelim) completed(req *block.Request) {
	actual := r.k.NormalizedBytes(req)
	var idxs []int64
	for idx := req.Pages.First; idx < req.Pages.First+req.Pages.N; idx++ {
		idxs = append(idxs, idx)
	}
	prelimSum, prelimAccount := r.takePrelim(req.FileID, idxs...)
	b, _ := r.bucketOf(req.Causes)
	if b == nil && prelimAccount != "" {
		b = r.accounts[prelimAccount]
	}
	if b == nil {
		return
	}
	if delta := actual - prelimSum; delta >= 0 {
		b.Charge(r.k.Now(), delta)
	} else {
		b.Refund(r.k.Now(), -delta)
	}
	r.statRevised += actual
}

// TestPrelimTableMatchesPerPage drives Split-Token's memory-level hooks and
// write completions with random sequences — fresh dirties, overwrites,
// re-dirties of pages whose write is in flight, completions and file
// frees — and runs the per-page reference model beside it. Charges, refunds
// and revisions must match bit for bit, and so must the account balances
// and the scheduler's sched.prelim_charges gauge. Re-dirtying a
// page whose write is in flight replaces its outstanding charge in both.
func TestPrelimTableMatchesPerPage(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		k := schedtest.Kernel(t, Factory, nil)
		s := k.Sched.(*Sched)
		ref := &refPrelim{
			k:          k,
			accounts:   map[string]*tokenbucket.Bucket{},
			pidAccount: map[causes.PID]string{100: "a", 101: "b", 102: "", 103: "unlimited"},
			est:        core.NewWriteEstimator(s.PrelimRandBytes),
			lastIdx:    map[int64]int64{},
			prelim:     map[int64]map[int64]prelimCharge{},
		}
		for a, rate := range map[string]float64{"a": 1 << 20, "b": 4 << 20} {
			s.SetLimit(a, rate, 8<<20)
			ref.accounts[a] = tokenbucket.New(rate, 8<<20)
		}
		for pid, a := range ref.pidAccount {
			s.pidAccount[pid] = a
		}
		sets := []causes.Set{causes.Of(100), causes.Of(101), causes.Of(102), causes.Of(103),
			causes.Of(100, 101), causes.Of(102, 101), causes.Of(3)}

		rng := rand.New(rand.NewSource(seed))
		const files, span = 3, 4 * cache.ChunkPages
		dirty := map[int64]map[int64]causes.Set{} // file -> page -> causes
		var inFlight []*block.Request

		check := func(step int) {
			t.Helper()
			same := func(name string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: %s = %v, per-page model %v", seed, step, name, got, want)
				}
			}
			same("prelim charged", s.statPrelim, ref.statPrelim)
			same("revised", s.statRevised, ref.statRevised)
			same("refunded", s.statRefunds, ref.statRefunds)
			n, _ := gauge(k, "sched.prelim_charges")
			same("prelim_charges", n, float64(ref.nprelim))
			for a, b := range ref.accounts {
				got, _ := gauge(k, "sched.tokens."+a)
				bc := *b
				same("tokens."+a, got, bc.Tokens(k.Now()))
			}
		}

		// freeFile frees ino's dirty pages, chunk by chunk in index order.
		freeFile := func(ino int64) {
			fd := dirty[ino]
			idxs := make([]int64, 0, len(fd))
			for idx := range fd {
				idxs = append(idxs, idx)
			}
			slices.Sort(idxs)
			for i := 0; i < len(idxs); {
				base := idxs[i] &^ (cache.ChunkPages - 1)
				var freed uint64
				for ; i < len(idxs) && idxs[i] < base+cache.ChunkPages; i++ {
					freed |= 1 << uint(idxs[i]-base)
					ref.bufferFree(ino, idxs[i])
				}
				s.bufferFree(ino, base, freed)
			}
			clear(fd)
		}

		for step := 0; step < 600; step++ {
			ino := 1 + rng.Int63n(files)
			fd := dirty[ino]
			if fd == nil {
				fd = map[int64]causes.Set{}
				dirty[ino] = fd
			}
			switch op := rng.Intn(10); {
			case op < 5: // dirty a range: fresh pages, overwrites, in-flight pages
				first := rng.Int63n(span)
				last := min(first+rng.Int63n(2*cache.ChunkPages), span-1)
				if rng.Intn(8) == 0 {
					first, last = 1<<20+first, 1<<20+last // a random jump
				}
				cs := sets[rng.Intn(len(sets))]
				for idx := first; idx <= last; {
					base := idx &^ (cache.ChunkPages - 1)
					var pages, overwrite uint64
					for ; idx <= last && idx < base+cache.ChunkPages; idx++ {
						b := uint(idx - base)
						pages |= 1 << b
						prev, isOverwrite := fd[idx]
						if isOverwrite {
							overwrite |= 1 << b
							fd[idx] = prev.Union(cs)
						} else {
							fd[idx] = cs
						}
						ref.bufferDirty(ino, idx, fd[idx], prev)
					}
					s.bufferDirty(ino, base, pages, overwrite, cs)
				}
			case op < 7: // write back some consecutive dirty pages, lowest first
				idxs := make([]int64, 0, len(fd))
				for idx := range fd {
					idxs = append(idxs, idx)
				}
				slices.Sort(idxs)
				idxs = idxs[:min(len(idxs), 1+rng.Intn(3*cache.ChunkPages))]
				if len(idxs) == 0 {
					continue
				}
				for j := 1; j < len(idxs); j++ {
					if idxs[j] != idxs[j-1]+1 {
						idxs = idxs[:j] // a write covers one page range
						break
					}
				}
				var cs causes.Set
				for _, idx := range idxs {
					cs = cs.Union(fd[idx])
					delete(fd, idx)
				}
				if rng.Intn(4) == 0 {
					cs = causes.Of(3) // billed to nobody: the charge falls back to the prelim account
				}
				inFlight = append(inFlight, &block.Request{
					Op: device.Write, FileID: ino, Pages: device.PageRange{First: idxs[0], N: int64(len(idxs))}, Causes: cs,
					Service: time.Duration(1+rng.Intn(20000)) * time.Microsecond,
				})
			case op < 9: // complete a write
				if len(inFlight) == 0 {
					continue
				}
				i := rng.Intn(len(inFlight))
				r := inFlight[i]
				inFlight = slices.Delete(inFlight, i, i+1)
				ref.completed(r)
				s.Completed(r)
			default:
				freeFile(ino)
			}
			if rng.Intn(5) == 0 {
				k.Run(time.Duration(rng.Intn(50)) * time.Millisecond)
			}
			check(step)
		}
		for _, r := range inFlight {
			ref.completed(r)
			s.Completed(r)
		}
		for ino := int64(1); ino <= files; ino++ {
			freeFile(ino)
		}
		check(-1)
		if s.nprelim != 0 || len(s.prelim) != 0 || len(ref.prelim) != 0 {
			t.Fatalf("seed %d: %d charges in %d chunk records outstanding after every write completed and every file was freed", seed, s.nprelim, len(s.prelim))
		}
	}
}
