// Package fs implements the simulated journaling file systems.
//
// Both file systems share one engine (inodes, extents, delayed allocation,
// ordered-mode journaling with transaction batching) and differ in split-
// framework integration, mirroring the paper's §6:
//
//   - ext4sim is fully integrated: the writeback task and the journal task
//     are marked as I/O proxies, so journal and delayed-allocation I/O is
//     tagged with the processes that caused it.
//   - xfssim is partially integrated: data buffers carry cause tags (two
//     lines of integration, per the paper), but the journal task's writes
//     are tagged with the journal task itself, so metadata I/O cannot be
//     mapped back to its causes (Fig 17).
//
// The journaling model is ext4's ordered mode (paper §2.3.2): data blocks of
// every file with updates in a transaction must reach disk before the
// transaction commits, which entangles otherwise-independent fsyncs.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/ioctx"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// BlockSize is the file-system block size. It must equal the page-cache
// page size (cache.PageSize); the layer DAG forbids fs from importing cache
// (imports flow downward vfs → cache → fs → block → device), so the
// equality is asserted at compile time in internal/core where both layers
// meet.
const BlockSize = 4096

// PageCache is the page-cache surface the file system writes through. It is
// declared here rather than importing internal/cache so the dependency
// points downward: cache calls into fs via the writeback function, fs calls
// up into the cache only through this interface, and the composition root
// (internal/core) wires a *cache.Cache in.
type PageCache interface {
	// LookupRun returns the length of the longest run of pages of ino from
	// first, at most to last, that are all resident (hit) or all absent,
	// updating LRU state for a hit run.
	LookupRun(ino, first, last int64) (n int64, hit bool)
	// InsertCleanRange adds clean resident pages first..last of ino.
	InsertCleanRange(ino, first, last int64)
	// MarkDirtyRange dirties pages first..last of ino in index order on
	// behalf of ctx, tagging them with ctx's causes. It returns how many
	// were already dirty (overwrites).
	MarkDirtyRange(ctx *ioctx.Ctx, ino, first, last int64) int
	// TakeDirty removes up to max dirty pages of ino (all if max <= 0),
	// returning their indices and cause tags.
	TakeDirty(ino int64, max int) (idxs []int64, tags []causes.Set)
	// FreeFile drops every page of ino.
	FreeFile(ino int64)
	// FileDirtyPages returns ino's dirty page count.
	FileDirtyPages(ino int64) int64
	// SetWriteback installs the function the cache calls to flush dirty
	// pages of a file: flush up to max dirty pages of ino and invoke done(n)
	// once the submitted writes complete.
	SetWriteback(fn func(ino int64, max int, done func(n int)))
	// Misses returns the cumulative miss count (the VFS uses it to
	// classify a read as hit or miss).
	Misses() int64
	// Throttle blocks p while dirty pages exceed the dirty threshold.
	Throttle(p *sim.Proc)
}

// ErrNotFound is returned for paths that do not exist.
var ErrNotFound = errors.New("fs: not found")

// ErrExists is returned when creating a path that already exists.
var ErrExists = errors.New("fs: exists")

// File is an open file (inode) handle.
type File struct {
	Ino  int64
	Path string

	size    int64
	extents []extent // sorted by file block
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

type extent struct {
	fileBlk int64
	diskBlk int64
	n       int64
}

// Config sets file-system parameters.
type Config struct {
	// MaxRunBlocks caps the size of one block-layer request.
	MaxRunBlocks int
	// JournalBlocks is the size of the journal region.
	JournalBlocks int64
	// TagJournalProxy marks the journal task as an I/O proxy so its writes
	// carry the causes of the processes that added transaction updates.
	// True for ext4sim (full integration); false for xfssim (partial).
	TagJournalProxy bool
	// CopyOnWrite never overwrites in place: every flush allocates fresh
	// blocks and remaps the file, leaving garbage behind for a background
	// cleaner — the proxy mechanism of copy-on-write file systems
	// (paper §6: "for a copy-on-write file system, garbage collection
	// would be another important proxy mechanism").
	CopyOnWrite bool
	// GCThresholdBlocks is the garbage level that wakes the cleaner.
	GCThresholdBlocks int64
	// Name labels the file system.
	Name string
}

const (
	// commitInterval is the periodic journal commit (jbd2's 5 s).
	commitInterval = 5 * time.Second
	// gcBatch is how many live blocks the cleaner relocates per round.
	gcBatch int = 256
)

// Ext4Config returns the fully integrated ext4-like configuration.
func Ext4Config() Config {
	return Config{
		MaxRunBlocks:    256,
		JournalBlocks:   32768, // 128 MiB
		TagJournalProxy: true,
		Name:            "ext4sim",
	}
}

// XFSConfig returns the partially integrated XFS-like configuration.
func XFSConfig() Config {
	c := Ext4Config()
	c.TagJournalProxy = false
	c.Name = "xfssim"
	return c
}

// COWConfig returns a copy-on-write file system (ZFS/btrfs-like): no
// overwrite in place, checkpoint-style commits, and a garbage-collection
// task acting as an I/O proxy for the owners of relocated data.
func COWConfig() Config {
	c := Ext4Config()
	c.CopyOnWrite = true
	c.GCThresholdBlocks = 16384 // 64 MiB of garbage wakes the cleaner
	c.Name = "cowsim"
	return c
}

// txn is a journal transaction accumulating metadata updates.
type txn struct {
	id         int64
	metaBlocks int64
	tcauses    causes.Set
	inos       map[int64]struct{} // inodes with updates in this txn
	dataDeps   map[int64]struct{} // inodes whose dirty data must flush first
	done       *sim.Completion
	queued     bool
	req        trace.ReqID // trace id linking the commit's fan-out (0 untraced)
}

func (t *txn) has(ino int64) bool {
	_, ok := t.inos[ino]
	return ok
}

func (t *txn) empty() bool { return t.metaBlocks == 0 && len(t.inos) == 0 }

// FS is the simulated journaling file system.
type FS struct {
	env   *sim.Env
	cfg   Config
	cache PageCache
	blk   *block.Layer
	tr    *trace.Tracer

	files   map[string]*File
	byIno   map[int64]*File
	nextIno int64

	allocCursor  int64
	journalStart int64
	journalHead  int64

	running    *txn
	committing *txn
	nextTxnID  int64
	commitQ    []*txn
	commitWake *sim.WaitQueue
	// flushTxnID tags journal-driven data flushes (the ordered-mode pass of
	// commit) with the committing transaction, for the fault plane's log.
	flushTxnID int64

	jctx  *ioctx.Ctx // journal task identity
	wbCtx *ioctx.Ctx // writeback task identity (shared with the cache)

	inflightDones map[int64][]*sim.Completion // per-ino data writes in flight

	// Copy-on-write state.
	garbageBlocks int64
	fileOwners    map[int64]causes.Set // ino -> original writer causes
	gcWake        *sim.WaitQueue
	gcCtx         *ioctx.Ctx

	// Daemon continuations, preallocated once so the run-to-completion
	// daemons never build closures while parking.
	jWakeFn  func(sig bool)
	gcStepFn func()
	gcWakeFn func(sig bool)

	// Stats.
	statCommits     int64
	statJournalBlks int64
	statGCRelocated int64
}

// New creates a file system over cache and blk. jctx and wbCtx are the
// journal and writeback task identities; the file system installs itself as
// the cache's writeback function.
func New(env *sim.Env, cfg Config, c PageCache, blk *block.Layer, jctx, wbCtx *ioctx.Ctx) *FS {
	f := &FS{
		env:           env,
		cfg:           cfg,
		cache:         c,
		blk:           blk,
		tr:            trace.Nop,
		files:         make(map[string]*File),
		byIno:         make(map[int64]*File),
		nextIno:       1,
		commitWake:    sim.NewWaitQueue(env),
		inflightDones: make(map[int64][]*sim.Completion),
		jctx:          jctx,
		wbCtx:         wbCtx,
	}
	// Place the journal in the middle of the disk, data from the front.
	f.journalStart = blk.Disk().Blocks() / 2
	f.journalHead = 0
	f.allocCursor = 1024
	f.running = f.newTxn()
	// The daemons start with t=0 events scheduled in construction order
	// (journal, commit timer, COW cleaner), which fixes the kernel's seq
	// numbering; the schedule goldens pin it.
	f.jWakeFn = func(sig bool) { f.journalStep() }
	env.Schedule(0, f.journalStep)
	env.Schedule(0, f.armCommitTimer)
	if cfg.CopyOnWrite {
		f.fileOwners = make(map[int64]causes.Set)
		f.gcWake = sim.NewWaitQueue(env)
		f.gcCtx = &ioctx.Ctx{PID: 4, Name: "gc", Prio: 4}
		f.gcStepFn = f.gcStep
		f.gcWakeFn = func(sig bool) { f.gcStep() }
		env.Schedule(0, f.gcStepFn)
	}
	c.SetWriteback(f.writebackFile)
	return f
}

// Name returns the configured file-system name.
func (f *FS) Name() string { return f.cfg.Name }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
func (f *FS) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	f.tr = tr
}

// Cache returns the page cache the file system uses.
func (f *FS) Cache() PageCache { return f.cache }

// Block returns the block layer.
func (f *FS) Block() *block.Layer { return f.blk }

func (f *FS) newTxn() *txn {
	f.nextTxnID++
	return &txn{
		id:       f.nextTxnID,
		inos:     make(map[int64]struct{}),
		dataDeps: make(map[int64]struct{}),
		done:     sim.NewCompletion(f.env),
	}
}

// Lookup returns the file at path.
func (f *FS) Lookup(path string) (*File, bool) {
	file, ok := f.files[path]
	return file, ok
}

// FileByIno returns the file with the given inode number.
func (f *FS) FileByIno(ino int64) (*File, bool) {
	file, ok := f.byIno[ino]
	return file, ok
}

// MkFileContiguous creates a file of size bytes with a contiguous on-disk
// layout, bypassing the journal. It models a file that existed before the
// experiment (read workloads scan such files).
func (f *FS) MkFileContiguous(path string, size int64) *File {
	file := &File{Ino: f.nextIno, Path: path, size: size}
	f.nextIno++
	blocks := (size + BlockSize - 1) / BlockSize
	if blocks > 0 {
		file.extents = []extent{{fileBlk: 0, diskBlk: f.allocCursor, n: blocks}}
		f.allocCursor += blocks
	}
	f.files[path] = file
	f.byIno[file.Ino] = file
	return file
}

// Create makes a new empty file, dirtying directory and inode metadata in
// the running transaction on behalf of ctx (paper: creat is a metadata
// write exposed to the scheduler).
func (f *FS) Create(p *sim.Proc, ctx *ioctx.Ctx, path string) (*File, error) {
	return f.mknod(ctx, "create", path)
}

// Mkdir creates a directory; in this model it is a pure metadata update.
func (f *FS) Mkdir(p *sim.Proc, ctx *ioctx.Ctx, path string) error {
	_, err := f.mknod(ctx, "mkdir", path)
	return err
}

// mknod adds an inode at path, dirtying a directory block and an inode
// table block in the running transaction on behalf of ctx.
func (f *FS) mknod(ctx *ioctx.Ctx, op, path string) (*File, error) {
	if _, ok := f.files[path]; ok {
		return nil, fmt.Errorf("%s %s: %w", op, path, ErrExists)
	}
	file := &File{Ino: f.nextIno, Path: path}
	f.nextIno++
	f.files[path] = file
	f.byIno[file.Ino] = file
	f.txnJoin(file.Ino, ctx.Causes(), 2, false)
	return file, nil
}

// Unlink removes a file, freeing its cached pages (the buffer-free hook
// fires for dirty pages whose I/O work vanished).
func (f *FS) Unlink(p *sim.Proc, ctx *ioctx.Ctx, path string) error {
	file, ok := f.files[path]
	if !ok {
		return fmt.Errorf("unlink %s: %w", path, ErrNotFound)
	}
	f.cache.FreeFile(file.Ino)
	delete(f.files, path)
	delete(f.byIno, file.Ino)
	f.txnJoin(file.Ino, ctx.Causes(), 2, false)
	return nil
}

// txnJoin records a metadata update for ino in the running transaction.
func (f *FS) txnJoin(ino int64, cs causes.Set, metaBlocks int64, dataDep bool) {
	t := f.running
	t.inos[ino] = struct{}{}
	t.metaBlocks += metaBlocks
	t.tcauses = t.tcauses.Union(cs)
	if dataDep {
		t.dataDeps[ino] = struct{}{}
	}
}

// Write dirties the page range [off, off+n) of file on behalf of ctx. The
// inode's metadata (size/mtime, and eventually block allocations) joins the
// running transaction, creating the ordered-mode data dependency.
func (f *FS) Write(p *sim.Proc, ctx *ioctx.Ctx, file *File, off, n int64) {
	if n <= 0 {
		return
	}
	if off+n > file.size {
		file.size = off + n
	}
	f.cache.MarkDirtyRange(ctx, file.Ino, off/BlockSize, (off+n-1)/BlockSize)
	if f.cfg.CopyOnWrite {
		f.cowNoteOwner(file.Ino, ctx.Causes())
	}
	f.txnJoin(file.Ino, ctx.Causes(), 1, true)
}

// Read serves the page range [off, off+n): cache hits cost nothing here
// (the CPU copy charge lives in the VFS layer); misses become block reads
// tagged with ctx's causes. Contiguous misses coalesce into one request per
// on-disk run.
func (f *FS) Read(p *sim.Proc, ctx *ioctx.Ctx, file *File, off, n int64) {
	if n <= 0 {
		return
	}
	last := (off + n - 1) / BlockSize
	var dones []*sim.Completion
	for idx := off / BlockSize; idx <= last; {
		run, hit := f.cache.LookupRun(file.Ino, idx, last)
		if hit {
			idx += run
			continue
		}
		missFirst, missLast := idx, idx+run-1
		idx += run
		if idx <= last {
			// The page after a miss run is a hit. It is promoted before the
			// misses are submitted, as a page-by-page read does: a sparse
			// miss run inserts, and can evict, right away.
			f.cache.LookupRun(file.Ino, idx, idx)
			idx++
		}
		dones = append(dones, f.submitReadRuns(ctx, file, missFirst, missLast)...)
	}
	for _, d := range dones {
		d.Wait(p)
	}
}

// submitReadRuns maps the missed pages first..last to disk runs and submits
// one request per mapped run, inserting clean pages on completion; unmapped
// pages are zero-filled without I/O. It is an fs profiling probe (the read
// path's synchronous mapping work).
func (f *FS) submitReadRuns(ctx *ioctx.Ctx, file *File, first, last int64) []*sim.Completion {
	perf.Count(perf.BucketFS)
	idxs := make([]int64, last-first+1)
	for i := range idxs {
		idxs[i] = first + int64(i)
	}
	var dones []*sim.Completion
	f.eachRun(file, idxs, func(i, j int, diskBlk int64, mapped bool) {
		ino, runFirst, runLast := file.Ino, idxs[i], idxs[j-1]
		if !mapped {
			// Sparse read: zero-fill, no I/O.
			f.cache.InsertCleanRange(ino, runFirst, runLast)
			return
		}
		req := &block.Request{
			Op:        device.Read,
			LBA:       diskBlk,
			Blocks:    j - i,
			Causes:    ctx.Causes(),
			Submitter: ctx.PID,
			Prio:      ctx.Prio,
			Class:     ctx.Class,
			Sync:      true,
			FileID:    file.Ino,
			Req:       ctx.Req,
		}
		if ctx.ReadDeadline > 0 {
			req.Deadline = f.env.Now().Add(ctx.ReadDeadline)
		}
		done := f.blk.Submit(req)
		// Registered before anyone can wait on done (Submit never completes
		// inline), so the pages are in the cache before any waiter resumes.
		done.WaitFn(func() { f.cache.InsertCleanRange(ino, runFirst, runLast) })
		dones = append(dones, done)
	})
	return dones
}

// eachRun cuts the ascending page indices idxs of file into runs and calls
// fn(i, j, diskBlk, mapped) for each run idxs[i:j] in order. A mapped run is
// contiguous in file and disk space, starts at diskBlk and holds at most
// MaxRunBlocks pages; an unmapped run is consecutive unmapped pages,
// uncapped, so delayed allocation gives it one extent.
func (f *FS) eachRun(file *File, idxs []int64, fn func(i, j int, diskBlk int64, mapped bool)) {
	for i := 0; i < len(idxs); {
		diskBlk, mapped := f.lookupBlock(file, idxs[i])
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 && (!mapped || j-i < f.cfg.MaxRunBlocks) {
			next, ok := f.lookupBlock(file, idxs[j])
			if ok != mapped || mapped && next != diskBlk+int64(j-i) {
				break
			}
			j++
		}
		fn(i, j, diskBlk, mapped)
		i = j
	}
}

func (f *FS) lookupBlock(file *File, fileBlk int64) (int64, bool) {
	for _, e := range file.extents {
		if fileBlk >= e.fileBlk && fileBlk < e.fileBlk+e.n {
			return e.diskBlk + (fileBlk - e.fileBlk), true
		}
	}
	return 0, false
}

// allocate maps fileBlk..fileBlk+n-1 to fresh disk blocks (delayed
// allocation happens here, at flush time).
func (f *FS) allocate(file *File, fileBlk, n int64) int64 {
	diskBlk := f.allocCursor
	f.allocCursor += n
	// Merge with the previous extent when contiguous in both spaces.
	if len(file.extents) > 0 {
		lastE := &file.extents[len(file.extents)-1]
		if lastE.fileBlk+lastE.n == fileBlk && lastE.diskBlk+lastE.n == diskBlk {
			lastE.n += n
			return diskBlk
		}
	}
	file.extents = append(file.extents, extent{fileBlk: fileBlk, diskBlk: diskBlk, n: n})
	sort.Slice(file.extents, func(i, j int) bool {
		return file.extents[i].fileBlk < file.extents[j].fileBlk
	})
	return diskBlk
}

// flushFileDataFn flushes up to max dirty pages of ino (all if max <= 0) on
// behalf of ctx and invokes k with the page count once every submitted
// write has completed: it takes the pages, allocates unmapped blocks (the
// writeback and journal tasks act as proxies for the pages' causes while
// they do this delegation work), and submits one write per run. It is an
// fs profiling probe (the write path's synchronous flush work).
func (f *FS) flushFileDataFn(ctx *ioctx.Ctx, ino int64, max int, k func(n int)) {
	perf.Count(perf.BucketFS)
	idxs, tags := f.cache.TakeDirty(ino, max)
	file, ok := f.byIno[ino]
	if !ok || len(idxs) == 0 {
		// Nothing dirty, or unlinked while dirty: nothing to write.
		k(0)
		return
	}
	flushStart := f.env.Now()
	var union causes.Set
	for _, t := range tags {
		union = union.Union(t)
	}
	proxied := ctx == f.wbCtx || ctx == f.jctx
	if proxied {
		ctx.BeginProxy(union)
	}
	// Allocate unmapped runs; allocation is a metadata update that joins
	// the running transaction, charged to the proxied causes. In
	// copy-on-write mode every flushed run of consecutive pages gets fresh
	// blocks, remapping the file and leaving garbage behind.
	allocated := false
	if f.cfg.CopyOnWrite {
		for i := 0; i < len(idxs); {
			j := i + 1
			for j < len(idxs) && idxs[j] == idxs[j-1]+1 {
				j++
			}
			f.cowRemap(file, idxs[i], int64(j-i))
			allocated = true
			i = j
		}
	} else {
		f.eachRun(file, idxs, func(i, j int, _ int64, mapped bool) {
			if !mapped {
				f.allocate(file, idxs[i], int64(j-i))
				allocated = true
			}
		})
	}
	if allocated {
		who := union
		if !proxied {
			who = ctx.Causes()
		}
		f.txnJoin(ino, who, 1, false)
		if f.tr.Enabled() {
			// Delayed allocation happened here, at flush time — the
			// delegation the paper calls out (§2.3.1).
			f.tr.Record(trace.Event{
				Layer: trace.LayerFS, Op: trace.OpAlloc,
				Req: ctx.Req, PID: ctx.PID, Causes: who,
				Start: flushStart, End: flushStart, Ino: ino, Blocks: len(idxs),
			})
		}
	}
	// Journal-driven flushes (the ordered-mode pass of commit) carry the
	// committing transaction's id. Background writeback submits async
	// requests even though the daemon waits for pacing — only fsync- and
	// commit-driven writes are urgent at the block level.
	var txnID int64
	if ctx == f.jctx {
		txnID = f.flushTxnID
	}
	var dones []*sim.Completion
	f.eachRun(file, idxs, func(i, j int, diskBlk int64, _ bool) {
		runCauses := tags[i]
		for _, t := range tags[i+1 : j] {
			runCauses = runCauses.Union(t)
		}
		req := &block.Request{
			Op:        device.Write,
			LBA:       diskBlk,
			Blocks:    j - i,
			Causes:    runCauses,
			Submitter: ctx.PID,
			Prio:      ctx.Prio,
			Class:     ctx.Class,
			Sync:      ctx != f.wbCtx,
			FileID:    ino,
			Pages:     append([]int64(nil), idxs[i:j]...),
			TxnID:     txnID,
			Req:       ctx.Req,
		}
		if ctx.WriteDeadline > 0 {
			req.Deadline = f.env.Now().Add(ctx.WriteDeadline)
		}
		done := f.blk.Submit(req)
		f.inflightDones[ino] = append(f.inflightDones[ino], done)
		dones = append(dones, done)
	})
	sim.WaitAllFn(dones, func() {
		if f.tr.Enabled() {
			// The transaction id lets attribution tie foreign data flushes
			// to the fsyncs waiting on that commit.
			f.tr.Record(trace.Event{
				Layer: trace.LayerFS, Op: trace.OpFlushData,
				Req: ctx.Req, PID: ctx.PID, Causes: union, Prio: ctx.Prio,
				Start: flushStart, End: f.env.Now(), Ino: ino, Blocks: len(idxs),
				Txn: txnID,
			})
		}
		if proxied {
			ctx.EndProxy()
		}
		k(len(idxs))
	})
}

// flushFileData flushes every dirty page of ino on behalf of ctx and blocks
// p until the writes have completed.
func (f *FS) flushFileData(p *sim.Proc, ctx *ioctx.Ctx, ino int64) {
	p.Await(func(resume func()) {
		f.flushFileDataFn(ctx, ino, 0, func(int) { resume() })
	})
}

// waitInflight blocks p until every data write for ino that was in flight
// at call time has completed. It is a snapshot barrier, not a quiescence
// wait: writes submitted afterwards are not waited on, so a saturated
// writeback pipeline cannot starve fsync or the journal task.
func (f *FS) waitInflight(p *sim.Proc, ino int64) {
	p.Await(func(resume func()) { f.waitInflightFn(ino, resume) })
}

// waitInflightFn is the continuation form of waitInflight: the same
// snapshot barrier, invoking k once the snapshot has drained.
func (f *FS) waitInflightFn(ino int64, k func()) {
	snapshot := append([]*sim.Completion(nil), f.inflightDones[ino]...)
	sim.WaitAllFn(snapshot, func() {
		f.pruneInflight(ino)
		k()
	})
}

// pruneInflight drops completed entries so the per-ino list stays small.
func (f *FS) pruneInflight(ino int64) {
	live := f.inflightDones[ino][:0]
	for _, d := range f.inflightDones[ino] {
		if !d.Done() {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		delete(f.inflightDones, ino)
	} else {
		f.inflightDones[ino] = live
	}
}

// writebackFile is the cache's writeback callback: flush a batch of ino's
// dirty pages on behalf of the writeback task (asynchronously submitted,
// but the daemon waits so it paces itself at disk speed) and report the
// count once the writes reach disk.
func (f *FS) writebackFile(ino int64, max int, done func(n int)) {
	f.flushFileDataFn(f.wbCtx, ino, max, done)
}

// Fsync flushes file's dirty data and then forces the transaction containing
// its metadata to commit, waiting for durability (paper Fig 4). Independent
// processes' data entangles here: ordered mode flushes every data dependency
// of the transaction before the commit record.
func (f *FS) Fsync(p *sim.Proc, ctx *ioctx.Ctx, file *File) {
	mk, _ := f.blk.Disk().(device.DurabilityMarker)
	f.waitInflight(p, file.Ino)
	f.flushFileData(p, ctx, file.Ino)
	// The durability promise covers media writes issued up to the end of the
	// data flush; anything sneaking in between here and the commit barrier
	// (another process's writeback) is not what this fsync acknowledged.
	var upTo int64
	if mk != nil {
		upTo = mk.MediaWrites()
	}
	if f.running.has(file.Ino) {
		f.awaitCommit(p, ctx, f.running, file.Ino)
	} else if f.committing != nil && f.committing.has(file.Ino) {
		f.awaitCommit(p, ctx, f.committing, file.Ino)
	}
	if mk != nil {
		mk.MarkDurable(file.Ino, upTo)
	}
}

// SyncAll flushes all dirty data and commits the running transaction.
func (f *FS) SyncAll(p *sim.Proc, ctx *ioctx.Ctx) {
	mk, _ := f.blk.Disk().(device.DurabilityMarker)
	// Flush in sorted ino order: flush order determines the I/O request
	// stream, so ranging the map directly would make the schedule differ
	// run to run with the same seed.
	inos := make([]int64, 0, len(f.byIno))
	for ino := range f.byIno {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		f.flushFileData(p, ctx, ino)
	}
	var upTo int64
	if mk != nil {
		upTo = mk.MediaWrites()
	}
	if !f.running.empty() {
		f.awaitCommit(p, ctx, f.running, 0)
	}
	if mk != nil {
		for _, ino := range inos {
			mk.MarkDurable(ino, upTo)
		}
	}
}

// awaitCommit queues t's commit unless it is already queued or committing
// and blocks p until t is durable. The wait span carries t's cause set —
// recorded after the wait, when the set is final — so the journal
// entanglement of an fsync (paper Fig 4) is a single span, not a
// reconstruction over the commit's fan-out. ino is the synced file (0 for
// SyncAll).
func (f *FS) awaitCommit(p *sim.Proc, ctx *ioctx.Ctx, t *txn, ino int64) {
	f.requestCommit(t)
	waitStart := f.env.Now()
	t.done.Wait(p)
	if f.tr.Enabled() {
		f.tr.Record(trace.Event{
			Layer: trace.LayerFS, Op: trace.OpCommitWait,
			Req: ctx.Req, PID: ctx.PID, Causes: t.tcauses,
			Prio: ctx.Prio, Start: waitStart, End: f.env.Now(),
			Ino: ino, Txn: t.id,
			Flags: trace.FlagSync | trace.FlagJournal,
		})
	}
}

func (f *FS) requestCommit(t *txn) {
	if t.queued || t.done.Done() {
		return
	}
	t.queued = true
	f.commitQ = append(f.commitQ, t)
	f.commitWake.Signal()
}

// armCommitTimer is the commit timer's t=0 startup event: it arms the first
// periodic tick.
func (f *FS) armCommitTimer() {
	f.env.Schedule(commitInterval, f.commitTimerFire)
}

// commitTimerFire is one tick of the periodic jbd2-style commit timer.
func (f *FS) commitTimerFire() {
	if !f.running.empty() {
		f.requestCommit(f.running)
	}
	f.env.Schedule(commitInterval, f.commitTimerFire)
}

// journalStep is one run-to-completion iteration of the journal daemon: pop
// a queued transaction and start its commit chain, or park on commitWake.
func (f *FS) journalStep() {
	if len(f.commitQ) == 0 {
		f.commitWake.WaitFn(f.jWakeFn)
		return
	}
	t := f.commitQ[0]
	f.commitQ = f.commitQ[1:]
	f.commitFn(t)
}

// commitFn commits transaction t as a continuation chain over the flush
// and request completions: the ordered-mode data pass, then the journal
// writes (commitJournalWrites).
func (f *FS) commitFn(t *txn) {
	if t == f.running {
		f.running = f.newTxn()
	}
	f.committing = t
	traced := f.tr.Enabled()
	var commitStart sim.Time
	if traced {
		// The whole commit — ordered data flushes, journal writes, barrier —
		// is one request tree keyed by the transaction's ID; stamping the
		// journal task's context links every descendant span to it.
		if t.req == 0 {
			t.req = f.tr.NextReq()
		}
		f.jctx.Req = t.req
		commitStart = f.env.Now()
	}
	// Ordered mode: every data dependency must reach disk before the
	// commit record. This is the entanglement the split framework must
	// work around (paper §2.3.2).
	deps := make([]int64, 0, len(t.dataDeps))
	for ino := range t.dataDeps {
		deps = append(deps, ino)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
	f.flushTxnID = t.id
	i := 0
	var depStep func()
	depStep = func() {
		if i == len(deps) {
			f.commitJournalWrites(t, traced, commitStart)
			return
		}
		ino := deps[i]
		i++
		depStart := f.env.Now()
		f.waitInflightFn(ino, func() {
			f.flushFileDataFn(f.jctx, ino, 0, func(n int) {
				if traced {
					f.tr.Record(trace.Event{
						Layer: trace.LayerFS, Op: trace.OpOrderedFlush,
						Req: t.req, PID: f.jctx.PID, Causes: t.tcauses,
						Start: depStart, End: f.env.Now(), Ino: ino, Blocks: n,
						Txn: t.id,
					})
				}
				depStep()
			})
		})
	}
	depStep()
}

// commitJournalWrites finishes a commit chain after the ordered-mode data
// pass: descriptor + metadata blocks, the commit-record barrier (laid out
// sequentially in the journal region), then the epilogue, and loops back
// into journalStep for the next queued transaction.
func (f *FS) commitJournalWrites(t *txn, traced bool, commitStart sim.Time) {
	f.flushTxnID = 0
	jcauses := causes.Of(f.jctx.PID)
	if f.cfg.TagJournalProxy {
		f.jctx.BeginProxy(t.tcauses)
		jcauses = f.jctx.Causes()
	}
	nblocks := t.metaBlocks + 1
	if nblocks > f.cfg.JournalBlocks/2 {
		nblocks = f.cfg.JournalBlocks / 2
	}
	lba := f.journalStart + f.journalHead
	f.journalHead = (f.journalHead + nblocks + 1) % f.cfg.JournalBlocks
	desc := &block.Request{
		Op:        device.Write,
		LBA:       lba,
		Blocks:    int(nblocks),
		Causes:    jcauses,
		Submitter: f.jctx.PID,
		Prio:      f.jctx.Prio,
		Journal:   true,
		Meta:      true,
		Sync:      true,
		TxnID:     t.id,
		Req:       t.req,
	}
	f.blk.Submit(desc).WaitFn(func() {
		commitRec := &block.Request{
			Op:        device.Write,
			LBA:       lba + nblocks,
			Blocks:    1,
			Causes:    jcauses,
			Submitter: f.jctx.PID,
			Prio:      f.jctx.Prio,
			Journal:   true,
			Meta:      true,
			Sync:      true,
			Barrier:   true,
			TxnID:     t.id,
			Req:       t.req,
		}
		f.blk.Submit(commitRec).WaitFn(func() {
			if f.cfg.TagJournalProxy {
				f.jctx.EndProxy()
			}
			if traced {
				f.tr.Record(trace.Event{
					Layer: trace.LayerFS, Op: trace.OpTxnCommit, Label: f.cfg.Name,
					Req: t.req, PID: f.jctx.PID, Causes: t.tcauses,
					Start: commitStart, End: f.env.Now(), Blocks: int(nblocks) + 1,
					Txn: t.id, Flags: trace.FlagJournal | trace.FlagMeta,
				})
				f.jctx.Req = 0
			}
			f.statCommits++
			f.statJournalBlks += nblocks + 1
			f.committing = nil
			t.done.Complete()
			f.journalStep()
		})
	})
}

// RunningTxnInfo reports the running transaction's metadata block count and
// the total dirty pages of its data dependencies — the quantities
// Split-Deadline uses to estimate commit cost.
func (f *FS) RunningTxnInfo() (metaBlocks int64, depDirtyPages int64) {
	t := f.running
	//splitlint:ignore maporder FileDirtyPages is a read-only accessor and += over it is commutative; this runs on scheduler decisions, so skip the sort+alloc
	for ino := range t.dataDeps {
		depDirtyPages += f.cache.FileDirtyPages(ino)
	}
	return t.metaBlocks, depDirtyPages
}

// JournalRegion returns the journal's on-disk placement (start block and
// region length), for the crash checker's geometry cross-checks.
func (f *FS) JournalRegion() (start, blocks int64) {
	return f.journalStart, f.cfg.JournalBlocks
}

// IsCopyOnWrite reports whether the file system runs in copy-on-write mode
// (checkpoint-rollback recovery rather than journal replay).
func (f *FS) IsCopyOnWrite() bool { return f.cfg.CopyOnWrite }

// Commits returns the number of committed transactions.
func (f *FS) Commits() int64 { return f.statCommits }

// JournalBlocksWritten returns total journal blocks written.
func (f *FS) JournalBlocksWritten() int64 { return f.statJournalBlks }

// FragmentationOf returns the number of extents of a file, a proxy for
// layout quality used in tests.
func (f *FS) FragmentationOf(file *File) int { return len(file.extents) }
