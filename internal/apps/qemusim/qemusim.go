// Package qemusim models a QEMU-style virtual machine: a guest kernel with
// its own page cache running over a virtual disk backed by a host file
// (paper §7.2). The guest's cache sits *above* the host's scheduling layer,
// so memory-bound guest workloads are fast no matter how the host throttles
// the VM — the effect that equalizes SCS and Split-Token for mem workloads
// in Fig 20 — while guest I/O that misses the guest cache becomes host file
// I/O billed to the VM's token account. The guest cache keeps its pages on
// the host cache's LRU ring of page runs (cache.Ring) under its own policy.
package qemusim

import (
	"math/bits"
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

// guestChunk is the state of guest chunk number key: bit b of present
// (dirty) is page key<<cache.ChunkShift + b, and nodes lists the ring nodes
// holding its resident pages, clean and dirty.
type guestChunk struct {
	key            int64
	present, dirty uint64
	nodes          []int32
}

// VM is a running guest. Its cache's policy: dirty pages stay on the ring
// and a hit or a write promotes them, eviction takes the first clean page in
// ring order, and a flush batch takes dirty pages in ring order.
type VM struct {
	k    *core.Kernel
	cfg  Config
	pr   *vfs.Process // the VM's host identity (QEMU process)
	back *fs.File     // host backing file

	// The guest page cache: resident of capacity pages, on ring. chunkOf
	// indexes chunks by chunk number (page >> cache.ChunkShift); entry 0
	// stands for "no chunk" and stays empty, and freed entries wait in
	// freeChunks. memo is the entry of chunk number memoKey (0 if it has
	// none), so a ranged access does one map lookup per chunk.
	capacity   int64
	resident   int64
	ring       cache.Ring
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
		chunkOf:   make(map[int64]int32),
		chunks:    make([]guestChunk, 1),
		flushWake: sim.NewWaitQueue(k.Env),
		throttleQ: sim.NewWaitQueue(k.Env),
	}
	vm.ring.Init()
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

// span returns the chunks entry h of page idx's chunk (0, which holds no
// page, if it has none), leaving it in the memo, and the pages m of it from
// idx on, up to last, that are all resident (hit) or all absent.
func (vm *VM) span(idx, last int64) (h int32, m uint64, hit bool) {
	if key := idx >> cache.ChunkShift; vm.memoKey != key {
		vm.memoKey, vm.memo = key, vm.chunkOf[key]
	}
	b := uint(idx & (cache.ChunkPages - 1))
	same := vm.chunks[vm.memo].present >> b
	if hit = same&1 != 0; !hit {
		same = ^same
	}
	k := min(int64(bits.TrailingZeros64(^same)), last-idx+1)
	return vm.memo, (uint64(1)<<k - 1) << b, hit
}

// insertRun caches the absent pages m of chunk key at the most recently
// used end of the ring. It evicts what inserting them a page at a time would:
// before each page, the least recently used clean pages while the cache is
// full. Those victims are the oldest clean pages already resident and then,
// for a clean run, the run's own pages in order, all but its last (a page
// pushed earlier in the run is the next victim once every older page is
// dirty); such pages are evicted before they are inserted.
func (vm *VM) insertRun(key int64, m uint64, dirty bool) {
	k := int64(bits.OnesCount64(m))
	if over := vm.resident + k - vm.capacity; over > 0 {
		if short := over - vm.evict(over); short > 0 && !dirty {
			for drop := min(short, k-1); drop > 0; drop-- {
				m &= m - 1
			}
			k = int64(bits.OnesCount64(m))
		}
	}
	if vm.memoKey != key {
		vm.memoKey, vm.memo = key, vm.chunkOf[key]
	}
	h := vm.memo
	if h == 0 {
		if n := len(vm.freeChunks); n > 0 {
			h, vm.freeChunks = vm.freeChunks[n-1], vm.freeChunks[:n-1]
		} else {
			h, vm.chunks = int32(len(vm.chunks)), append(vm.chunks, guestChunk{})
		}
		vm.chunks[h].key = key
		vm.chunkOf[key], vm.memo = h, h
	}
	ch := &vm.chunks[h]
	ch.present |= m
	if dirty {
		ch.dirty |= m
		vm.dirty += k
	}
	vm.resident += k
	vm.ring.Push(h, &ch.nodes, m)
}

// evict drops up to want least recently used clean pages, in ring order,
// and returns how many it dropped; dirty pages are skipped (they must be
// flushed first).
func (vm *VM) evict(want int64) int64 {
	got := int64(0)
	for n := vm.ring.Next(0); n != 0 && got < want; {
		h, mask := vm.ring.Node(n)
		next := vm.ring.Next(n)
		ch := &vm.chunks[h]
		clean := mask &^ ch.dirty
		for got+int64(bits.OnesCount64(clean)) > want {
			clean &^= 1 << (bits.Len64(clean) - 1) // the lowest go first
		}
		if clean != 0 {
			c := int64(bits.OnesCount64(clean))
			got += c
			vm.resident -= c
			vm.ring.Take(n, &ch.nodes, clean)
			if ch.present &^= clean; ch.present == 0 {
				delete(vm.chunkOf, ch.key)
				vm.memoKey, vm.memo = ch.key, 0
				*ch = guestChunk{nodes: ch.nodes[:0]}
				vm.freeChunks = append(vm.freeChunks, h)
			}
		}
		n = next
	}
	return got
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
	for idx := first; idx <= last; {
		h, m, hit := vm.span(idx, last)
		if hit && runStart < idx {
			vm.readRun(p, runStart, idx)
			// The run's inserts may have evicted this page; a hit on a
			// page gone since is not re-read.
			if h, m, hit = vm.span(idx, last); !hit {
				m, runStart = m&-m, idx+1
			}
		}
		if idx += int64(bits.OnesCount64(m)); hit {
			vm.ring.Promote(h, &vm.chunks[h].nodes, m)
			runStart = idx
		}
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
	for idx := start; idx < end; {
		// A run's inserts may evict pages after it, so each run is spanned
		// anew.
		_, m, hit := vm.span(idx, end-1)
		if idx += int64(bits.OnesCount64(m)); !hit {
			vm.insertRun(vm.memoKey, m, false)
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
	for idx := first; idx <= last; {
		// An absent run's inserts may evict pages after it, so each run is
		// spanned anew.
		h, m, hit := vm.span(idx, last)
		if idx += int64(bits.OnesCount64(m)); !hit {
			vm.insertRun(vm.memoKey, m, true)
			continue
		}
		ch := &vm.chunks[h]
		vm.dirty += int64(bits.OnesCount64(m &^ ch.dirty))
		ch.dirty |= m
		vm.ring.Promote(h, &ch.nodes, m)
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

// takeDirty cleans up to max dirty pages (all if max<=0), taken in ring
// order, and returns their indices in ascending order, reusing buf's
// storage. The pages keep their places on the ring.
func (vm *VM) takeDirty(buf []int64, max int) []int64 {
	buf = buf[:0]
walk:
	for n := vm.ring.Next(0); n != 0 && vm.dirty > 0; n = vm.ring.Next(n) {
		h, mask := vm.ring.Node(n)
		ch := &vm.chunks[h]
		for m := mask & ch.dirty; m != 0; m &= m - 1 {
			buf = append(buf, ch.key<<cache.ChunkShift+int64(bits.TrailingZeros64(m)))
			ch.dirty &^= m & -m
			vm.dirty--
			if max > 0 && len(buf) >= max {
				break walk
			}
		}
	}
	slices.Sort(buf)
	return buf
}
