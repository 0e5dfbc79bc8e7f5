// Package stoken implements Split-Token, the paper's split-level
// resource-limit scheduler (§5.3).
//
// Tokens represent sequential-equivalent bytes. Accounting is two-phase,
// exploiting hooks at two levels (paper §3.2):
//
//   - Memory level (prompt): when a buffer is dirtied, a preliminary model
//     charges the causing account based on the randomness of offsets within
//     the file. Overwrites of already-dirty buffers are free — they create
//     no new disk work.
//   - Block level (accurate): when the request reaches disk, the charge is
//     revised to the true normalized cost (device time × sequential
//     bandwidth), including journal amplification and layout effects, and
//     attributed via split cause tags.
//
// Throttling follows the paper exactly: system-call writes (and creats and
// fsyncs) block while the account balance is negative; block-level *reads*
// of a negative account are held in the elevator; system-call reads are
// never throttled (cache hits must stay fast) and block-level writes are
// never throttled (to avoid journal entanglement).
package stoken

import (
	"math/bits"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
	"splitio/internal/tokenbucket"
	"splitio/internal/vfs"
)

// prelimChunk holds the outstanding preliminary charges of one cache chunk
// of a file: bit b of present marks page chunk<<cache.ChunkShift+b, charged
// amount[b] to the account acctNames[acct[b]]. It holds no pointers, so the
// collector never scans it.
type prelimChunk struct {
	present uint64
	acct    [cache.ChunkPages]int32
	amount  [cache.ChunkPages]float64
}

// prelimKey names a cache chunk of a file.
type prelimKey struct{ ino, chunk int64 }

// Sched is the Split-Token scheduler; it is its own block elevator.
type Sched struct {
	env   *sim.Env
	k     *core.Kernel
	layer *block.Layer

	accounts   map[string]*tokenbucket.Bucket
	pidAccount map[causes.PID]string

	est *core.WriteEstimator
	// prelim holds the outstanding preliminary charges per cache chunk. A
	// chunk's record goes with its last charge, to spare for reuse;
	// nprelim counts the charges across chunks. acctNames lists the
	// accounts charged, indexed by acctIdx.
	prelim    map[prelimKey]*prelimChunk
	spare     []*prelimChunk
	nprelim   int
	acctNames []string
	acctIdx   map[string]int32

	writeQ []*block.Request
	readQ  []*block.Request

	// Read anticipation: after a read completes, briefly hold the disk for
	// the same stream's next sequential request so interleaving does not
	// turn two sequential streams into random I/O.
	expectLBA       int64
	anticipateUntil sim.Time
	anticipateCs    causes.Set

	lastFg sim.Time

	// PrelimRandBytes is the preliminary (memory-level) normalized cost of
	// a random page; the block-level revision corrects it. Attach builds
	// the estimator from it, so set it before.
	PrelimRandBytes float64

	statPrelim  float64
	statRevised float64
	statRefunds float64
}

const (
	// anticipationWindow is how long the dispatcher waits for a stream's
	// next sequential read before moving on.
	anticipationWindow = 500 * time.Microsecond
	// maxReadWait bounds how long a queued read may starve behind an
	// anticipated stream before it breaks the chain (a CFQ-like slice).
	maxReadWait = 20 * time.Millisecond
	// idleGrace and idleDirtyMax implement the idle class at the syscall
	// level: idle writers wait for quiet and keep tiny backlogs.
	idleGrace          = 50 * time.Millisecond
	idleDirtyMax int64 = 4 << 20
)

// New builds a Split-Token scheduler with no accounts configured.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:             env,
		accounts:        make(map[string]*tokenbucket.Bucket),
		pidAccount:      make(map[causes.PID]string),
		prelim:          make(map[prelimKey]*prelimChunk),
		acctIdx:         make(map[string]int32),
		PrelimRandBytes: 256 << 10,
	}
}

// Factory is the core.Factory for Split-Token.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "split-token" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// SetLimit creates (or replaces) an account refilled at rate normalized
// bytes/second with burst capacity cap. An account's first SetLimit after
// Attach publishes its balance as gauge sched.tokens.<account>.
func (s *Sched) SetLimit(account string, rate, cap float64) {
	if _, ok := s.accounts[account]; !ok && s.k != nil {
		s.k.Metrics.Gauge("sched.tokens."+account, func() float64 {
			return s.accounts[account].Peek(s.env.Now())
		})
	}
	s.accounts[account] = tokenbucket.New(rate, cap)
}

// Tokens returns the account balance now.
func (s *Sched) Tokens(account string) float64 {
	b, ok := s.accounts[account]
	if !ok {
		return 0
	}
	return b.Tokens(s.env.Now())
}

// Attach implements core.Scheduler. Besides the hooks it publishes the
// block-level queues and the outstanding preliminary charges awaiting
// block-level revision as gauges.
func (s *Sched) Attach(k *core.Kernel) {
	s.k = k
	s.layer = k.Block
	s.est = core.NewWriteEstimator(s.PrelimRandBytes)
	k.Metrics.Gauge("sched.reads_queued", func() float64 { return float64(len(s.readQ)) })
	k.Metrics.Gauge("sched.writes_queued", func() float64 { return float64(len(s.writeQ)) })
	k.Metrics.Gauge("sched.prelim_charges", func() float64 { return float64(s.nprelim) })
	k.VFS.SetHooks(vfs.Hooks{
		WriteEntry:  s.writeEntry,
		FsyncEntry:  func(p *sim.Proc, c *ioctx.Ctx, f *fs.File) { s.throttleSyscall(p, c) },
		CreatEntry:  func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
		MkdirEntry:  func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
		UnlinkEntry: func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
	})
	k.Cache.SetHooks(cache.MemHooks{
		BufferDirty: s.bufferDirty,
		BufferFree:  s.bufferFree,
	})
}

// accountOf resolves the token account of a pid via the process table.
func (s *Sched) accountOf(pid causes.PID) string {
	if a, ok := s.pidAccount[pid]; ok {
		return a
	}
	a := ""
	if pr, ok := s.k.VFS.Process(pid); ok {
		a = pr.Ctx.Account
	}
	s.pidAccount[pid] = a
	return a
}

// bucketOf returns the bucket for the first billable cause, if any.
func (s *Sched) bucketOf(cs causes.Set) (*tokenbucket.Bucket, string) {
	for _, pid := range cs.PIDs() {
		if a := s.accountOf(pid); a != "" {
			if b, ok := s.accounts[a]; ok {
				return b, a
			}
		}
	}
	return nil, ""
}

// --- Memory level: prompt preliminary charging ---

// bufferDirty charges the writer's account for the chunk run's freshly
// dirtied pages, page by page in index order. Overwrites of dirty buffers
// create no new disk work and cost nothing. (The paper notes the scheduler
// may shift responsibility to the last writer; we keep the original
// charge.) A fresh page with a charge outstanding, its earlier write still
// in flight, has that charge replaced.
func (s *Sched) bufferDirty(ino, base int64, pages, overwrite uint64, cs causes.Set) {
	fresh := pages &^ overwrite
	if fresh == 0 {
		return
	}
	amt, rest := s.est.EstimateRun(ino,
		base+int64(bits.TrailingZeros64(fresh)), base+cache.ChunkPages-1-int64(bits.LeadingZeros64(fresh)))
	b, acct := s.bucketOf(cs)
	if b == nil {
		return
	}
	now := s.env.Now()
	pc := s.prelimChunk(prelimKey{ino, base >> cache.ChunkShift})
	a := s.acctIndex(acct)
	for m := fresh; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b.Charge(now, amt)
		//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
		s.statPrelim += amt
		pc.acct[i], pc.amount[i] = a, amt
		amt = rest
	}
	s.nprelim += bits.OnesCount64(fresh &^ pc.present)
	pc.present |= fresh
}

// prelimChunk returns the charge record of chunk key, making it if needed.
func (s *Sched) prelimChunk(key prelimKey) *prelimChunk {
	pc := s.prelim[key]
	if pc == nil {
		if n := len(s.spare); n > 0 {
			pc, s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			pc = new(prelimChunk)
		}
		s.prelim[key] = pc
	}
	return pc
}

// releasePrelim drops chunk key's record once its last charge is taken.
func (s *Sched) releasePrelim(key prelimKey, pc *prelimChunk) {
	delete(s.prelim, key)
	s.spare = append(s.spare, pc)
}

// acctIndex returns the index of account a in acctNames, adding it if new.
func (s *Sched) acctIndex(a string) int32 {
	i, ok := s.acctIdx[a]
	if !ok {
		i = int32(len(s.acctNames))
		s.acctNames = append(s.acctNames, a)
		s.acctIdx[a] = i
	}
	return i
}

// takePrelim removes the outstanding preliminary charges of ino's pages
// first..first+n-1. It returns their sum, added in ascending page order,
// and the account of the last one found ("" when none was).
func (s *Sched) takePrelim(ino, first, n int64) (sum float64, account string) {
	key := prelimKey{ino, -1} // no chunk of a page index is negative
	var pc *prelimChunk
	for idx := first; idx < first+n; idx++ {
		if c := idx >> cache.ChunkShift; c != key.chunk {
			key.chunk = c
			pc = s.prelim[key]
		}
		i := idx & (cache.ChunkPages - 1)
		if pc == nil || pc.present&(1<<i) == 0 {
			continue
		}
		//splitlint:ignore floatdet reviewed: sums charges recorded in deterministic page order; exactly-rounded
		sum += pc.amount[i]
		account = s.acctNames[pc.acct[i]]
		pc.present &^= 1 << i
		s.nprelim--
		if pc.present == 0 {
			s.releasePrelim(key, pc)
			pc = nil
		}
	}
	return sum, account
}

// bufferFree refunds the outstanding preliminary charges of the freed
// pages, page by page in index order.
func (s *Sched) bufferFree(ino, base int64, freed uint64) {
	key := prelimKey{ino, base >> cache.ChunkShift}
	if pc := s.prelim[key]; pc != nil {
		now := s.env.Now()
		taken := freed & pc.present
		for m := taken; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if b, ok := s.accounts[s.acctNames[pc.acct[i]]]; ok {
				b.Refund(now, pc.amount[i])
				//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded refunds in deterministic order
				s.statRefunds += pc.amount[i]
			}
		}
		s.nprelim -= bits.OnesCount64(taken)
		if pc.present &^= taken; pc.present == 0 {
			s.releasePrelim(key, pc)
		}
	}
	s.est.Forget(ino)
}

// --- Syscall level: throttle writes/creats/fsyncs on negative balance ---

func (s *Sched) throttleSyscall(p *sim.Proc, c *ioctx.Ctx) {
	if c.Class != block.ClassIdle {
		s.lastFg = s.env.Now()
	}
	a := c.Account
	if a == "" {
		return
	}
	if b, ok := s.accounts[a]; ok {
		b.Wait(p)
	}
}

func (s *Sched) writeEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
	if c.Class == block.ClassIdle {
		// Idle class, done right: hold the write *before* it pollutes the
		// write buffer, until the system is quiet and our backlog drained.
		for p.Now().Sub(s.lastFg) < idleGrace ||
			s.k.Cache.FileDirtyBytes(f.Ino) > idleDirtyMax {
			p.Sleep(idleGrace)
		}
	}
	s.throttleSyscall(p, c)
}

// --- Block level: read throttling + accurate revision ---

// Add implements block.Elevator.
func (s *Sched) Add(r *block.Request) {
	if r.Class != block.ClassIdle && !r.Journal && r.Submitter >= 100 {
		s.lastFg = s.env.Now()
	}
	if r.Op == device.Write {
		// Never throttled: holding writes below the file system would
		// entangle them with the journal.
		s.writeQ = append(s.writeQ, r)
		return
	}
	s.readQ = append(s.readQ, r)
}

// Next implements block.Elevator: writes immediately, then the first read
// whose account can pay.
func (s *Sched) Next(now sim.Time) *block.Request {
	if len(s.writeQ) > 0 {
		r := s.writeQ[0]
		copy(s.writeQ, s.writeQ[1:])
		s.writeQ = s.writeQ[:len(s.writeQ)-1]
		return r
	}
	held := false
	soonest := time.Hour
	// An eligible read that has waited a full slice breaks any anticipation
	// chain: streams may not starve other readers.
	for i, r := range s.readQ {
		if now.Sub(r.Queued) < maxReadWait {
			continue
		}
		b, _ := s.bucketOf(r.Causes)
		if b == nil || b.Positive(now) {
			copy(s.readQ[i:], s.readQ[i+1:])
			s.readQ = s.readQ[:len(s.readQ)-1]
			s.anticipateUntil = 0
			return r
		}
	}
	// Serve the anticipated continuation first if it has arrived.
	if now < s.anticipateUntil {
		for i, r := range s.readQ {
			if r.LBA != s.expectLBA {
				continue
			}
			b, _ := s.bucketOf(r.Causes)
			if b == nil || b.Positive(now) {
				copy(s.readQ[i:], s.readQ[i+1:])
				s.readQ = s.readQ[:len(s.readQ)-1]
				s.anticipateUntil = 0
				return r
			}
		}
		// Hold the disk briefly: the stream's next read is expected within
		// the window (a kick is scheduled at window end), unless its
		// account cannot pay.
		if b, _ := s.bucketOf(s.anticipateCs); b == nil || b.Positive(now) {
			return nil
		}
		s.anticipateUntil = 0
	}
	for i, r := range s.readQ {
		b, _ := s.bucketOf(r.Causes)
		if b == nil || b.Positive(now) {
			copy(s.readQ[i:], s.readQ[i+1:])
			s.readQ = s.readQ[:len(s.readQ)-1]
			return r
		}
		held = true
		if w := b.UntilPositive(now); w < soonest {
			soonest = w
		}
	}
	if held && s.layer != nil {
		// Floor the re-poll delay: a balance of -epsilon reports a zero
		// wait, and a zero-delay kick chain would spin.
		if soonest < 100*time.Microsecond {
			soonest = 100 * time.Microsecond
		}
		s.env.Schedule(soonest, s.layer.Kick)
	}
	return nil
}

// Completed implements block.Elevator: revise to the true normalized cost.
func (s *Sched) Completed(r *block.Request) {
	actual := s.k.NormalizedBytes(r)
	if r.Op == device.Read {
		if b, _ := s.bucketOf(r.Causes); b != nil {
			b.Charge(s.env.Now(), actual)
			//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
			s.statRevised += actual
		}
		// Anticipate the stream's next sequential read.
		s.expectLBA = r.LBA + int64(r.Blocks)
		s.anticipateCs = r.Causes
		s.anticipateUntil = s.env.Now().Add(anticipationWindow)
		if s.layer != nil {
			s.env.Schedule(anticipationWindow, s.layer.Kick)
		}
		return
	}
	// Writes: subtract what the preliminary model already charged for
	// these pages, then charge the remainder (possibly a refund).
	prelimSum, prelimAccount := s.takePrelim(r.FileID, r.Pages.First, r.Pages.N)
	b, _ := s.bucketOf(r.Causes)
	if b == nil && prelimAccount != "" {
		b = s.accounts[prelimAccount]
	}
	if b == nil {
		return
	}
	delta := actual - prelimSum
	if delta >= 0 {
		b.Charge(s.env.Now(), delta)
	} else {
		b.Refund(s.env.Now(), -delta)
	}
	//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
	s.statRevised += actual
}

// PrelimCharged and RevisedCharged expose accounting totals for tests.
func (s *Sched) PrelimCharged() float64  { return s.statPrelim }
func (s *Sched) RevisedCharged() float64 { return s.statRevised }
