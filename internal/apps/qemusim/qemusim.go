// Package qemusim models a QEMU-style virtual machine: a guest kernel with
// its own page cache running over a virtual disk backed by a host file
// (paper §7.2). The guest's cache sits *above* the host's scheduling layer,
// so memory-bound guest workloads are fast no matter how the host throttles
// the VM — the effect that equalizes SCS and Split-Token for mem workloads
// in Fig 20 — while guest I/O that misses the guest cache becomes host file
// I/O billed to the VM's token account.
package qemusim

import (
	"slices"
	"time"

	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// Config parameterizes a guest.
type Config struct {
	// GuestDirtyMax throttles guest writers when the guest cache holds
	// this many dirty pages.
	GuestDirtyMax int64
	// Account bills the whole VM's host I/O.
	Account string
}

const (
	// diskBytes is the virtual-disk (host backing file) size.
	diskBytes int64 = 4 << 30
	// guestCachePages is the guest page-cache size in pages.
	guestCachePages int64 = 128 << 20 / cache.PageSize
	// flushBatch is the guest flusher's batch size in pages.
	flushBatch int = 256
	// pageCPU is the guest-side CPU cost per page touched.
	pageCPU = 400 * time.Nanosecond
)

// DefaultConfig returns a guest with a 4 GiB disk and 128 MiB of guest page
// cache.
func DefaultConfig(account string) Config {
	return Config{
		GuestDirtyMax: 16 << 20 / cache.PageSize,
		Account:       account,
	}
}

// guestPage is one slot of a VM's page arena. Slots link into the LRU ring
// by arena index; slot 0 is the ring's sentinel. The arena holds no
// pointers, so the collector never scans it.
type guestPage struct {
	idx        int64
	prev, next int32
	dirty      bool
}

// A chunk indexes chunkPages = 1<<chunkShift consecutive guest pages.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// guestChunk maps the pages of one 64-page chunk to their arena slots
// (0 = not resident); n counts the resident ones.
type guestChunk struct {
	n    int32
	slot [chunkPages]int32
}

// VM is a running guest.
type VM struct {
	k    *core.Kernel
	cfg  Config
	pr   *vfs.Process // the VM's host identity (QEMU process)
	back *fs.File     // host backing file

	// The guest page cache. capacity is its size in pages; pages is the
	// arena, with pages[0] the sentinel of the LRU ring (front = least
	// recently used), and free holds evicted slots. chunkOf indexes chunks
	// (chunk number = page / chunkPages) into the chunks arena, whose
	// entry 0 stands for "no chunk" and stays empty, and whose freed
	// entries wait in freeChunks. memo is the chunks entry of chunk number
	// memoKey (0 if it has none), so a ranged access does one map lookup
	// per chunk.
	capacity   int64
	pages      []guestPage
	free       []int32
	chunkOf    map[int64]int32
	chunks     []guestChunk
	freeChunks []int32
	memoKey    int64
	memo       int32
	dirty      int64
	flushIdx   []int64 // flushDirty's batch buffer

	flushWake    *sim.WaitQueue
	throttleQ    *sim.WaitQueue
	bytesRead    int64
	bytesWritten int64
	hostReads    int64
	hostWrites   int64
}

// Launch creates the backing file and starts the guest flusher on the host
// kernel k.
func Launch(k *core.Kernel, name string, cfg Config) *VM {
	vm := newVM(k, name, cfg)
	k.Env.Go(name+"-guest-flush", vm.flusher)
	return vm
}

// newVM builds a guest with an empty cache of guestCachePages pages and no
// flusher running.
func newVM(k *core.Kernel, name string, cfg Config) *VM {
	vm := &VM{
		k:         k,
		cfg:       cfg,
		pr:        k.VFS.NewProcess(name, 4),
		back:      k.FS.MkFileContiguous("/vm/"+name+".img", diskBytes),
		capacity:  guestCachePages,
		pages:     make([]guestPage, 1),
		chunkOf:   make(map[int64]int32),
		chunks:    make([]guestChunk, 1),
		flushWake: sim.NewWaitQueue(k.Env),
		throttleQ: sim.NewWaitQueue(k.Env),
	}
	vm.pr.Ctx.Account = cfg.Account
	return vm
}

// Process returns the VM's host process (for token accounting inspection).
func (vm *VM) Process() *vfs.Process { return vm.pr }

// BytesRead and BytesWritten return guest-side totals.
func (vm *VM) BytesRead() int64    { return vm.bytesRead }
func (vm *VM) BytesWritten() int64 { return vm.bytesWritten }

// HostReads and HostWrites return how many bytes escaped to the host.
func (vm *VM) HostReads() int64  { return vm.hostReads }
func (vm *VM) HostWrites() int64 { return vm.hostWrites }

// resident returns how many guest pages are cached.
func (vm *VM) resident() int64 { return int64(len(vm.pages) - 1 - len(vm.free)) }

// lookup returns page idx's arena slot, or 0 if it is not resident. It
// leaves idx's chunk in the memo: chunk 0 holds no page, so a memo of 0
// answers for a chunk that has none.
func (vm *VM) lookup(idx int64) int32 {
	if key := idx >> chunkShift; vm.memoKey != key {
		vm.memoKey, vm.memo = key, vm.chunkOf[key]
	}
	return vm.chunks[vm.memo].slot[idx&(chunkPages-1)]
}

// chunk returns the chunks entry of page idx, making one if it has none.
func (vm *VM) chunk(idx int64) *guestChunk {
	if vm.lookup(idx); vm.memo == 0 {
		if n := len(vm.freeChunks); n > 0 {
			vm.memo, vm.freeChunks = vm.freeChunks[n-1], vm.freeChunks[:n-1]
		} else {
			vm.memo = int32(len(vm.chunks))
			vm.chunks = append(vm.chunks, guestChunk{})
		}
		vm.chunkOf[vm.memoKey] = vm.memo
	}
	return &vm.chunks[vm.memo]
}

func (vm *VM) unlink(s int32) {
	pg := &vm.pages[s]
	vm.pages[pg.prev].next = pg.next
	vm.pages[pg.next].prev = pg.prev
}

// pushBack links slot s at the most-recently-used end of the ring.
func (vm *VM) pushBack(s int32) {
	tail := vm.pages[0].prev
	vm.pages[s].prev, vm.pages[s].next = tail, 0
	vm.pages[tail].next = s
	vm.pages[0].prev = s
}

func (vm *VM) touch(s int32) {
	vm.unlink(s)
	vm.pushBack(s)
}

func (vm *VM) insert(idx int64, dirty bool) {
	vm.evictIfFull()
	var s int32
	if n := len(vm.free); n > 0 {
		s, vm.free = vm.free[n-1], vm.free[:n-1]
	} else {
		s = int32(len(vm.pages))
		vm.pages = append(vm.pages, guestPage{})
	}
	vm.pages[s] = guestPage{idx: idx, dirty: dirty}
	vm.pushBack(s)
	ch := vm.chunk(idx)
	ch.slot[idx&(chunkPages-1)] = s
	ch.n++
	if dirty {
		vm.dirty++
	}
}

// evict drops the page in slot s, and its chunk once that is empty.
func (vm *VM) evict(s int32) {
	idx := vm.pages[s].idx
	vm.unlink(s)
	vm.free = append(vm.free, s)
	ch := vm.chunk(idx)
	ch.slot[idx&(chunkPages-1)] = 0
	if ch.n--; ch.n == 0 {
		delete(vm.chunkOf, vm.memoKey)
		vm.freeChunks = append(vm.freeChunks, vm.memo)
		vm.memo = 0
	}
}

// evictIfFull drops the least-recently-used clean page; dirty pages are
// skipped (they must be flushed first).
func (vm *VM) evictIfFull() {
	for vm.resident() >= vm.capacity {
		s := vm.pages[0].next
		for s != 0 && vm.pages[s].dirty {
			s = vm.pages[s].next
		}
		if s == 0 {
			return // everything dirty; flusher will make room
		}
		vm.evict(s)
	}
}

// Read performs a guest read: hits are guest-memory speed; misses become
// host reads on the VM's identity.
func (vm *VM) Read(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	first := off / cache.PageSize
	last := (off + n - 1) / cache.PageSize
	runStart := first // the pending miss run is runStart..idx-1
	for idx := first; idx <= last; idx++ {
		s := vm.lookup(idx)
		if s == 0 {
			continue
		}
		if runStart < idx {
			vm.readRun(p, runStart, idx)
			// The run's inserts may have evicted this page; a hit on a
			// page gone since is not re-read.
			s = vm.lookup(idx)
		}
		if s != 0 {
			vm.touch(s)
		}
		runStart = idx + 1
	}
	if runStart <= last {
		vm.readRun(p, runStart, last+1)
	}
	pages := last - first + 1
	vm.k.CPU.Use(p, time.Duration(pages)*pageCPU)
	vm.bytesRead += n
}

// readRun reads the missed guest pages start..end-1 from the host and, once
// the read returns, caches those still absent.
func (vm *VM) readRun(p *sim.Proc, start, end int64) {
	n := (end - start) * cache.PageSize
	vm.hostReads += n
	vm.k.VFS.Read(p, vm.pr, vm.back, start*cache.PageSize, n)
	for idx := start; idx < end; idx++ {
		if vm.lookup(idx) == 0 {
			vm.insert(idx, false)
		}
	}
}

// Write performs a guest buffered write: pages dirty in the guest cache and
// are flushed to the host by the guest flusher. Writers are throttled when
// the guest dirty set exceeds GuestDirtyMax.
func (vm *VM) Write(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	first := off / cache.PageSize
	last := (off + n - 1) / cache.PageSize
	for idx := first; idx <= last; idx++ {
		s := vm.lookup(idx)
		if s == 0 {
			vm.insert(idx, true)
			continue
		}
		if pg := &vm.pages[s]; !pg.dirty {
			pg.dirty = true
			vm.dirty++
		}
		vm.touch(s)
	}
	pages := last - first + 1
	vm.k.CPU.Use(p, time.Duration(pages)*pageCPU)
	vm.bytesWritten += n
	if vm.dirty > vm.cfg.GuestDirtyMax/2 {
		vm.flushWake.Signal()
	}
	for vm.dirty > vm.cfg.GuestDirtyMax {
		vm.throttleQ.Wait(p)
	}
}

// Fsync flushes the guest's dirty pages through to the host file durably.
func (vm *VM) Fsync(p *sim.Proc) {
	vm.flushDirty(p, 0)
	vm.k.VFS.Fsync(p, vm.pr, vm.back)
}

// flusher is the guest writeback daemon.
func (vm *VM) flusher(p *sim.Proc) {
	for {
		if vm.dirty == 0 {
			vm.flushWake.WaitTimeout(p, 5*time.Second)
			continue
		}
		vm.flushDirty(p, flushBatch)
		vm.throttleQ.Broadcast()
	}
}

// flushDirty writes up to max dirty guest pages (all if max<=0) to the
// host backing file, one host write per contiguous run.
func (vm *VM) flushDirty(p *sim.Proc, max int) {
	idxs := vm.takeDirty(vm.flushIdx, max)
	// The writes below block; a flush that starts meanwhile (an Fsync
	// beside the flusher) must not reuse this batch's buffer.
	vm.flushIdx = nil
	for i := 0; i < len(idxs); {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 {
			j++
		}
		n := int64(j-i) * cache.PageSize
		vm.hostWrites += n
		vm.k.VFS.Write(p, vm.pr, vm.back, idxs[i]*cache.PageSize, n)
		i = j
	}
	vm.flushIdx = idxs
}

// takeDirty cleans up to max dirty pages (all if max<=0), taken in LRU
// order, and returns their indices in ascending order, reusing buf's
// storage.
func (vm *VM) takeDirty(buf []int64, max int) []int64 {
	buf = buf[:0]
	for s := vm.pages[0].next; s != 0 && vm.dirty > 0; s = vm.pages[s].next {
		pg := &vm.pages[s]
		if !pg.dirty {
			continue
		}
		buf = append(buf, pg.idx)
		pg.dirty = false
		vm.dirty--
		if max > 0 && len(buf) >= max {
			break
		}
	}
	slices.Sort(buf)
	return buf
}
