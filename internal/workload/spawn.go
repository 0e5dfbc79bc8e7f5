package workload

import (
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// ProcSpec is one finite workload process: it performs exactly Bytes of
// I/O (then an fsync, when FsyncEnd) and exits, which is what lets
// property tests assert that every submitted request completes.
type ProcSpec struct {
	// Kind is one of seqread, randread, seqwrite, randwrite, fsyncappend.
	Kind string
	// Name labels the spawned process.
	Name string
	// Prio is the I/O priority, 0 (highest) .. 7 (lowest).
	Prio int
	// File is the file operated on.
	File string
	// Chunk is the per-call I/O size in bytes.
	Chunk int64
	// Bytes is the total amount of I/O.
	Bytes int64
	// Size is the file's preallocated size; writers wrap within it.
	Size int64
	// FsyncEnd makes the process fsync once after its last I/O.
	FsyncEnd bool
}

// Spawn materializes specs on kernel k: files are preallocated
// contiguously (so runs are comparable across schedulers) and one process
// is spawned per ProcSpec, in order. It returns the processes in the same
// order.
func Spawn(k *core.Kernel, specs []ProcSpec) []*vfs.Process {
	procs := make([]*vfs.Process, 0, len(specs))
	for _, ps := range specs {
		procs = append(procs, spawnProc(k, ps))
	}
	return procs
}

// spawnProc spawns one finite process.
func spawnProc(k *core.Kernel, ps ProcSpec) *vfs.Process {
	f := k.FS.MkFileContiguous(ps.File, ps.Size)
	return k.Spawn(ps.Name, ps.Prio, func(p *sim.Proc, pr *vfs.Process) {
		rng := k.Env.Rand()
		pages := ps.Size / cache.PageSize
		if pages <= 0 {
			pages = 1
		}
		var off, done int64
		for done < ps.Bytes {
			n := ps.Chunk
			if done+n > ps.Bytes {
				n = ps.Bytes - done
			}
			switch ps.Kind {
			case "seqread":
				if off+n > f.Size() {
					off = 0
				}
				k.VFS.Read(p, pr, f, off, n)
				off += n
			case "randread":
				ro := rng.Int63n(pages) * cache.PageSize
				if ro+n > f.Size() {
					ro = 0
				}
				k.VFS.Read(p, pr, f, ro, n)
			case "seqwrite":
				if off+n > ps.Size {
					off = 0
				}
				k.VFS.Write(p, pr, f, off, n)
				off += n
			case "randwrite":
				k.VFS.Write(p, pr, f, rng.Int63n(pages)*cache.PageSize, n)
			case "fsyncappend":
				if off+n > ps.Size {
					off = 0
				}
				k.VFS.Write(p, pr, f, off, n)
				k.VFS.Fsync(p, pr, f)
				off += n
			}
			done += n
		}
		if ps.FsyncEnd {
			k.VFS.Fsync(p, pr, f)
		}
	})
}
