// Package workload provides the reusable workload generators the paper's
// experiments are built from: sequential and random readers and writers,
// fsync appenders, run-then-seek patterns (Fig 6), memory-bound loops,
// metadata creators (Fig 17), and CPU spinners (Fig 15). Every generator
// loops until its process is killed at the end of the measured window;
// Spawn instead runs a list of finite processes that each do an exact
// byte count and exit.
package workload

import (
	"fmt"
	"time"

	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// SeqReader reads file sequentially in chunk-byte calls, wrapping at EOF.
func SeqReader(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk int64) {
	var off int64
	for {
		if off+chunk > f.Size() {
			off = 0
		}
		k.VFS.Read(p, pr, f, off, chunk)
		off += chunk
	}
}

// RandReader reads chunk bytes at uniformly random page-aligned offsets.
func RandReader(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk int64) {
	pages := f.Size() / cache.PageSize
	if pages <= 0 {
		pages = 1
	}
	rng := k.Env.Rand()
	for {
		off := rng.Int63n(pages) * cache.PageSize
		if off+chunk > f.Size() {
			off = 0
		}
		k.VFS.Read(p, pr, f, off, chunk)
	}
}

// SeqWriter writes file sequentially in chunk-byte calls, wrapping at limit
// bytes.
func SeqWriter(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk, limit int64) {
	var off int64
	for {
		if off+chunk > limit {
			off = 0
		}
		k.VFS.Write(p, pr, f, off, chunk)
		off += chunk
	}
}

// RandWriter writes chunk bytes at random page-aligned offsets within
// limit.
func RandWriter(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk, limit int64) {
	pages := limit / cache.PageSize
	if pages <= 0 {
		pages = 1
	}
	rng := k.Env.Rand()
	for {
		off := rng.Int63n(pages) * cache.PageSize
		k.VFS.Write(p, pr, f, off, chunk)
	}
}

// FsyncAppender appends chunk bytes and fsyncs, like a database log writer.
func FsyncAppender(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk int64) {
	var off int64
	for {
		k.VFS.Write(p, pr, f, off, chunk)
		k.VFS.Fsync(p, pr, f)
		off += chunk
	}
}

// RandWriteFsync writes n random chunk-byte writes within limit then
// fsyncs, like database checkpointing (Fig 5's thread B).
func RandWriteFsync(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk, limit int64, n int) {
	pages := limit / cache.PageSize
	if pages <= 0 {
		pages = 1
	}
	rng := k.Env.Rand()
	for {
		for i := 0; i < n; i++ {
			off := rng.Int63n(pages) * cache.PageSize
			k.VFS.Write(p, pr, f, off, chunk)
		}
		k.VFS.Fsync(p, pr, f)
	}
}

// RunReader repeatedly reads run bytes sequentially then seeks to a random
// offset (the Fig 6 access pattern).
func RunReader(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, run int64) {
	runs(k, p, pr, f, run, k.VFS.Read)
}

// RunWriter is RunReader's write counterpart.
func RunWriter(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, run int64) {
	runs(k, p, pr, f, run, k.VFS.Write)
}

// runs issues call over run bytes from a random page offset, in 128 KB
// chunks, then seeks again, forever.
func runs(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, run int64,
	call func(p *sim.Proc, pr *vfs.Process, f *fs.File, off, n int64)) {
	pages := f.Size() / cache.PageSize
	rng := k.Env.Rand()
	const chunk = int64(128 << 10)
	for {
		off := rng.Int63n(pages) * cache.PageSize
		end := off + run
		if end > f.Size() {
			end = f.Size()
		}
		for off < end {
			var n int64 = chunk
			if off+n > end {
				n = end - off
			}
			call(p, pr, f, off, n)
			off += n
		}
	}
}

// MemReader rereads a small (cache-resident) file as fast as possible.
func MemReader(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File) {
	SeqReader(k, p, pr, f, 1<<20)
}

// MemWriter overwrites the same region repeatedly (write work that mostly
// never reaches disk).
func MemWriter(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, region int64) {
	SeqWriter(k, p, pr, f, 1<<20, region)
}

// Creator creates empty files and fsyncs each, sleeping pause between
// operations (the Fig 17 metadata workload).
func Creator(k *core.Kernel, p *sim.Proc, pr *vfs.Process, dir string, pause time.Duration) {
	for i := 0; ; i++ {
		path := fmt.Sprintf("%s/f%d", dir, i)
		f, err := k.VFS.Create(p, pr, path)
		if err != nil {
			continue
		}
		k.VFS.Fsync(p, pr, f)
		if pause > 0 {
			p.Sleep(pause)
		}
	}
}

// Spin burns CPU in quantum-sized bursts without any I/O (Fig 15's
// CPU-interference control).
func Spin(k *core.Kernel, p *sim.Proc, quantum time.Duration) {
	for {
		k.CPU.Use(p, quantum)
	}
}

// WriteBurst writes total bytes at random page-aligned offsets within the
// file as fast as possible, once (Fig 1's bursty B).
func WriteBurst(k *core.Kernel, p *sim.Proc, pr *vfs.Process, f *fs.File, chunk, total int64) {
	pages := f.Size() / cache.PageSize
	if pages <= 0 {
		pages = 1
	}
	rng := k.Env.Rand()
	var written int64
	for written < total {
		off := rng.Int63n(pages) * cache.PageSize
		k.VFS.Write(p, pr, f, off, chunk)
		written += chunk
	}
}
