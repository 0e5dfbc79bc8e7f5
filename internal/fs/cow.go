// Copy-on-write mode: flushes never overwrite in place. Every flushed run
// is written to freshly allocated blocks and the file's extent map is
// remapped; superseded blocks become garbage that a background cleaner
// (the GC task) reclaims by relocating live data. The cleaner is a textbook
// I/O proxy: it performs reads and writes on behalf of the files' original
// writers, and the split framework tags it accordingly (paper §6).
package fs

import (
	"sort"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/device"
)

// remapRange points file blocks [fileBlk, fileBlk+n) at diskBlk..,
// splitting or trimming any overlapping extents, and returns how many
// previously mapped blocks became garbage.
func (f *FS) remapRange(file *File, fileBlk, n, diskBlk int64) int64 {
	var garbage int64
	var out []extent
	end := fileBlk + n
	for _, e := range file.extents {
		eEnd := e.fileBlk + e.n
		if eEnd <= fileBlk || e.fileBlk >= end {
			out = append(out, e)
			continue
		}
		// Overlap: keep the non-overlapping prefix/suffix pieces.
		if e.fileBlk < fileBlk {
			out = append(out, extent{fileBlk: e.fileBlk, diskBlk: e.diskBlk, n: fileBlk - e.fileBlk})
		}
		if eEnd > end {
			off := end - e.fileBlk
			out = append(out, extent{fileBlk: end, diskBlk: e.diskBlk + off, n: eEnd - end})
		}
		lo, hi := maxI64(e.fileBlk, fileBlk), minI64(eEnd, end)
		garbage += hi - lo
	}
	out = append(out, extent{fileBlk: fileBlk, diskBlk: diskBlk, n: n})
	sort.Slice(out, func(i, j int) bool { return out[i].fileBlk < out[j].fileBlk })
	file.extents = out
	return garbage
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// cowNoteOwner remembers the original writer causes of a file so GC can be
// billed to them later.
func (f *FS) cowNoteOwner(ino int64, cs causes.Set) {
	if f.fileOwners == nil {
		return
	}
	if prev, ok := f.fileOwners[ino]; ok {
		f.fileOwners[ino] = prev.Union(cs)
		return
	}
	f.fileOwners[ino] = cs
}

// cowRemap allocates fresh space for an already-mapped run during a flush
// and accounts the garbage it leaves behind.
func (f *FS) cowRemap(file *File, fileBlk, n int64) int64 {
	diskBlk := f.allocCursor
	f.allocCursor += n
	garbage := f.remapRange(file, fileBlk, n, diskBlk)
	f.garbageBlocks += garbage
	if f.garbageBlocks > f.cfg.GCThresholdBlocks && f.gcWake != nil {
		f.gcWake.Signal()
	}
	return diskBlk
}

// GarbageBlocks returns the current garbage count (COW mode).
func (f *FS) GarbageBlocks() int64 { return f.garbageBlocks }

// GCRelocatedBlocks returns how many live blocks the cleaner has moved.
func (f *FS) GCRelocatedBlocks() int64 { return f.statGCRelocated }

// gcStep is one run-to-completion round of the copy-on-write cleaner: when
// garbage accumulates, pick the most fragmented file, read a batch of its
// live blocks and rewrite them contiguously at the log head as a proxy for
// the file's owners, then pace one millisecond before the next round;
// otherwise park on gcWake. Split schedulers therefore charge GC I/O to the
// tenants whose overwrites created the garbage.
func (f *FS) gcStep() {
	if f.garbageBlocks <= f.cfg.GCThresholdBlocks {
		f.gcWake.WaitTimeoutFn(5*time.Second, f.gcWakeFn)
		return
	}
	victim := f.mostFragmented()
	if victim == nil {
		f.gcWake.WaitTimeoutFn(5*time.Second, f.gcWakeFn)
		return
	}
	owners := f.fileOwners[victim.Ino]
	if owners.Empty() {
		owners = causes.Of(f.gcCtx.PID)
	}
	f.gcCtx.BeginProxy(owners)
	f.relocateFn(victim, f.cfg.GCBatch, func() {
		f.gcCtx.EndProxy()
		// Relocation compacts: credit the garbage it implicitly reclaims.
		reclaimed := int64(f.cfg.GCBatch)
		if reclaimed > f.garbageBlocks {
			reclaimed = f.garbageBlocks
		}
		f.garbageBlocks -= reclaimed
		f.env.Schedule(time.Millisecond, f.gcStepFn)
	})
}

// mostFragmented returns the live file with the most extents.
func (f *FS) mostFragmented() *File {
	var best *File
	bestN := 1
	for _, file := range f.byIno {
		if n := len(file.extents); n > bestN {
			best, bestN = file, n
		}
	}
	return best
}

// relocateFn moves up to max live blocks of file from their current
// extents to contiguous space: read, remap, rewrite one extent at a time,
// chaining on the block completions, and invoke k when the batch quota is
// met or the extents run out.
func (f *FS) relocateFn(file *File, max int, k func()) {
	moved := 0
	// Copy the extent list: remapping mutates it.
	extents := append([]extent(nil), file.extents...)
	i := 0
	var step func()
	step = func() {
		if i >= len(extents) || moved >= max {
			k()
			return
		}
		e := extents[i]
		i++
		n := e.n
		if int64(max-moved) < n {
			n = int64(max - moved)
		}
		read := &block.Request{
			Op:        device.Read,
			LBA:       e.diskBlk,
			Blocks:    int(n),
			Causes:    f.gcCtx.Causes(),
			Submitter: f.gcCtx.PID,
			Prio:      f.gcCtx.Prio,
			Meta:      false,
			FileID:    file.Ino,
		}
		f.blk.Submit(read).WaitFn(func() {
			dst := f.allocCursor
			f.allocCursor += n
			f.remapRange(file, e.fileBlk, n, dst)
			write := &block.Request{
				Op:        device.Write,
				LBA:       dst,
				Blocks:    int(n),
				Causes:    f.gcCtx.Causes(),
				Submitter: f.gcCtx.PID,
				Prio:      f.gcCtx.Prio,
				FileID:    file.Ino,
			}
			f.blk.Submit(write).WaitFn(func() {
				moved += int(n)
				f.statGCRelocated += n
				step()
			})
		})
	}
	step()
}
