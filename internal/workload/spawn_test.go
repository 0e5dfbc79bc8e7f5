package workload

import (
	"testing"
	"time"
)

// TestSpawnFiniteCompletes pins the finite contract: a process with Bytes=N
// performs exactly N bytes of I/O and exits within the run window.
func TestSpawnFiniteCompletes(t *testing.T) {
	k := newKernel(t)
	procs := Spawn(k, []ProcSpec{
		{Kind: "seqwrite", Name: "w", Prio: 4, File: "/w", Chunk: 64 << 10, Bytes: 1 << 20, Size: 1 << 20, FsyncEnd: true},
		{Kind: "seqread", Name: "r", Prio: 4, File: "/r", Chunk: 64 << 10, Bytes: 1 << 20, Size: 1 << 20},
		{Kind: "randwrite", Name: "rw", Prio: 4, File: "/rw", Chunk: 16 << 10, Bytes: 512 << 10, Size: 2 << 20},
		{Kind: "fsyncappend", Name: "fa", Prio: 4, File: "/fa", Chunk: 32 << 10, Bytes: 128 << 10, Size: 128 << 10},
		{Kind: "randread", Name: "rr", Prio: 4, File: "/rr", Chunk: 4 << 10, Bytes: 256 << 10, Size: 1 << 20},
	})
	k.Run(30 * time.Second)
	w, r, rw, fa, rr := procs[0], procs[1], procs[2], procs[3], procs[4]
	if got := w.BytesWritten.Total(); got != 1<<20 {
		t.Errorf("w wrote %d bytes, want exactly 1M", got)
	}
	if w.Fsyncs.Count() != 1 {
		t.Errorf("w fsyncs = %d, want 1 (FsyncEnd)", w.Fsyncs.Count())
	}
	if got := r.BytesRead.Total(); got != 1<<20 {
		t.Errorf("r read %d bytes, want exactly 1M", got)
	}
	if got := rw.BytesWritten.Total(); got != 512<<10 {
		t.Errorf("rw wrote %d bytes, want exactly 512K", got)
	}
	if got := fa.BytesWritten.Total(); got != 128<<10 {
		t.Errorf("fa wrote %d bytes, want exactly 128K", got)
	}
	if got, want := int64(fa.Fsyncs.Count()), int64(128>>5); got != want {
		t.Errorf("fa fsyncs = %d, want %d (one per chunk)", got, want)
	}
	if got := rr.BytesRead.Total(); got != 256<<10 {
		t.Errorf("rr read %d bytes, want exactly 256K", got)
	}
}
