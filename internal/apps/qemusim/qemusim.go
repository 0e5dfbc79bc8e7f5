// Package qemusim models a QEMU-style virtual machine: a guest kernel with
// its own page cache running over a virtual disk backed by a host file
// (paper §7.2). The guest's cache sits *above* the host's scheduling layer,
// so memory-bound guest workloads are fast no matter how the host throttles
// the VM — the effect that equalizes SCS and Split-Token for mem workloads
// in Fig 20 — while guest I/O that misses the guest cache becomes host file
// I/O billed to the VM's token account.
package qemusim

import (
	"container/list"
	"sort"
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

type guestPage struct {
	idx   int64
	dirty bool
	elem  *list.Element
}

// VM is a running guest.
type VM struct {
	k    *core.Kernel
	cfg  Config
	pr   *vfs.Process // the VM's host identity (QEMU process)
	back *fs.File     // host backing file

	pages map[int64]*guestPage
	lru   list.List
	dirty int64

	flushWake     *sim.WaitQueue
	throttleQ     *sim.WaitQueue
	bytesRead     int64
	bytesWritten  int64
	hostReads     int64
	hostWrites    int64
	flusherParked bool
}

// Launch creates the backing file and starts the guest flusher on the host
// kernel k.
func Launch(k *core.Kernel, name string, cfg Config) *VM {
	vm := &VM{
		k:         k,
		cfg:       cfg,
		pr:        k.VFS.NewProcess(name, 4),
		back:      k.FS.MkFileContiguous("/vm/"+name+".img", diskBytes),
		pages:     make(map[int64]*guestPage),
		flushWake: sim.NewWaitQueue(k.Env),
		throttleQ: sim.NewWaitQueue(k.Env),
	}
	vm.pr.Ctx.Account = cfg.Account
	k.Env.Go(name+"-guest-flush", vm.flusher)
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

func (vm *VM) touch(pg *guestPage) {
	vm.lru.MoveToBack(pg.elem)
}

func (vm *VM) insert(idx int64, dirty bool) *guestPage {
	vm.evictIfFull()
	pg := &guestPage{idx: idx, dirty: dirty}
	pg.elem = vm.lru.PushBack(pg)
	vm.pages[idx] = pg
	if dirty {
		vm.dirty++
	}
	return pg
}

// evictIfFull drops the least-recently-used clean page; dirty pages are
// skipped (they must be flushed first).
func (vm *VM) evictIfFull() {
	for int64(len(vm.pages)) >= guestCachePages {
		evicted := false
		for e := vm.lru.Front(); e != nil; e = e.Next() {
			pg := e.Value.(*guestPage)
			if pg.dirty {
				continue
			}
			vm.lru.Remove(e)
			delete(vm.pages, pg.idx)
			evicted = true
			break
		}
		if !evicted {
			return // everything dirty; flusher will make room
		}
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
	var runStart, runLen int64 = -1, 0
	flushRun := func() {
		if runLen == 0 {
			return
		}
		vm.hostReads += runLen * cache.PageSize
		vm.k.VFS.Read(p, vm.pr, vm.back, runStart*cache.PageSize, runLen*cache.PageSize)
		for i := runStart; i < runStart+runLen; i++ {
			if _, ok := vm.pages[i]; !ok {
				vm.insert(i, false)
			}
		}
		runStart, runLen = -1, 0
	}
	for idx := first; idx <= last; idx++ {
		if pg, ok := vm.pages[idx]; ok {
			flushRun()
			vm.touch(pg)
			continue
		}
		if runLen == 0 {
			runStart = idx
		}
		runLen++
	}
	flushRun()
	pages := last - first + 1
	vm.k.CPU.Use(p, time.Duration(pages)*pageCPU)
	vm.bytesRead += n
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
		if pg, ok := vm.pages[idx]; ok {
			if !pg.dirty {
				pg.dirty = true
				vm.dirty++
			}
			vm.touch(pg)
			continue
		}
		vm.insert(idx, true)
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
// host backing file, coalescing contiguous runs.
func (vm *VM) flushDirty(p *sim.Proc, max int) {
	var idxs []int64
	for e := vm.lru.Front(); e != nil; e = e.Next() {
		pg := e.Value.(*guestPage)
		if pg.dirty {
			idxs = append(idxs, pg.idx)
			pg.dirty = false
			vm.dirty--
			if max > 0 && len(idxs) >= max {
				break
			}
		}
	}
	if len(idxs) == 0 {
		return
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	// Host writes, one per contiguous run.
	i := 0
	for i < len(idxs) {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 {
			j++
		}
		n := int64(j-i) * cache.PageSize
		vm.hostWrites += n
		vm.k.VFS.Write(p, vm.pr, vm.back, idxs[i]*cache.PageSize, n)
		i = j
	}
}
