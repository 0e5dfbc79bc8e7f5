// Package pgsim models a PostgreSQL server under a pgbench-like TPC-B
// workload (paper §7.1.2): several worker backends execute short
// read-modify-write transactions, each committing with a WAL fsync; a
// background checkpointer periodically flushes all dirty table data with
// fsync. The "fsync freeze" emerges under Block-Deadline — checkpoint
// flushes stall every commit — while Split-Deadline schedules the
// checkpoint fsync around the 5 ms foreground deadlines (Fig 19).
package pgsim

import (
	"time"

	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// Config parameterizes the server and workload.
type Config struct {
	// CheckpointInterval is the background checkpoint period (paper: 30 s).
	CheckpointInterval time.Duration
	// RowsPerTxn is the number of rows touched per transaction.
	RowsPerTxn int
	// ThinkTime between transactions per worker.
	ThinkTime time.Duration
}

const (
	// workers is the number of backend worker processes.
	workers int = 4
	// tableBytes is the heap size.
	tableBytes int64 = 1 << 30
	// foregroundFsyncDeadline is each worker's WAL fsync deadline (5 ms).
	foregroundFsyncDeadline = 5 * time.Millisecond
	// checkpointFsyncDeadline is the checkpointer's deadline (200 ms).
	checkpointFsyncDeadline = 200 * time.Millisecond
	// readDeadline is the block-read deadline for both (5 ms).
	readDeadline = 5 * time.Millisecond
)

// DefaultConfig matches the paper's pgbench setup at simulation scale.
func DefaultConfig() Config {
	return Config{
		CheckpointInterval: 30 * time.Second,
		RowsPerTxn:         3,
		ThinkTime:          time.Millisecond,
	}
}

// Server is a running simulated PostgreSQL.
type Server struct {
	k   *core.Kernel
	cfg Config

	table *fs.File

	// dirtyRows are row pages updated in PostgreSQL's shared buffers since
	// the last checkpoint; the checkpointer writes them to the heap file.
	dirtyRows []int64

	// Latencies collects transaction latencies across all workers.
	Latencies metrics.Histogram
	// Checkpoints counts completed checkpoints.
	Checkpoints int
	txns        int64
}

// Start creates the server files and spawns workers and the checkpointer.
func Start(k *core.Kernel, cfg Config) *Server {
	s := &Server{
		k:     k,
		cfg:   cfg,
		table: k.FS.MkFileContiguous("/pg/heap", tableBytes),
	}
	for i := 0; i < workers; i++ {
		pr := k.VFS.NewProcess("pg-worker", 4)
		pr.Ctx.FsyncDeadline = foregroundFsyncDeadline
		pr.Ctx.ReadDeadline = readDeadline
		pr.Ctx.WriteDeadline = foregroundFsyncDeadline
		k.Env.Go("pg-worker", func(p *sim.Proc) { s.worker(p, pr, i) })
	}
	ckpt := k.VFS.NewProcess("pg-checkpointer", 4)
	ckpt.Ctx.FsyncDeadline = checkpointFsyncDeadline
	ckpt.Ctx.ReadDeadline = readDeadline
	k.Env.Go("pg-checkpointer", func(p *sim.Proc) { s.checkpointer(p, ckpt) })
	return s
}

// Txns returns committed transactions.
func (s *Server) Txns() int64 { return s.txns }

func (s *Server) worker(p *sim.Proc, pr *vfs.Process, idx int) {
	wal, err := s.k.FS.Create(p, pr.Ctx, "/pg/wal"+string(rune('0'+idx)))
	if err != nil {
		return
	}
	tablePages := tableBytes / cache.PageSize
	rng := s.k.Env.Rand()
	var walOff int64
	for {
		start := p.Now()
		for i := 0; i < s.cfg.RowsPerTxn; i++ {
			row := rng.Int63n(tablePages)
			s.k.VFS.Read(p, pr, s.table, row*cache.PageSize, cache.PageSize)
			// The row update lands in PostgreSQL's shared buffers; the heap
			// file is written at checkpoint time.
			s.dirtyRows = append(s.dirtyRows, row)
		}
		s.k.VFS.Write(p, pr, wal, walOff, 4096)
		walOff += 4096
		s.k.VFS.Fsync(p, pr, wal)
		s.Latencies.Add(p.Now().Sub(start))
		s.txns++
		if s.cfg.ThinkTime > 0 {
			p.Sleep(s.cfg.ThinkTime)
		}
	}
}

func (s *Server) checkpointer(p *sim.Proc, pr *vfs.Process) {
	for {
		p.Sleep(s.cfg.CheckpointInterval)
		// Write every dirty shared buffer to the heap, then fsync — the
		// burst behind the community's "fsync freeze".
		rows := s.dirtyRows
		s.dirtyRows = nil
		for _, row := range rows {
			s.k.VFS.Write(p, pr, s.table, row*cache.PageSize, cache.PageSize)
		}
		s.k.VFS.Fsync(p, pr, s.table)
		s.Checkpoints++
	}
}

// FractionAbove returns the fraction of transactions slower than d.
func (s *Server) FractionAbove(d time.Duration) float64 {
	return s.Latencies.FractionAbove(d)
}

// P is shorthand for a latency percentile.
func (s *Server) P(q float64) time.Duration { return s.Latencies.Percentile(q) }
