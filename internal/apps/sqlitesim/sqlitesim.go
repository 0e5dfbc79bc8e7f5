// Package sqlitesim models a SQLite3-style embedded database in WAL mode,
// the paper's §7.1.1 workload: transactions append to a write-ahead log and
// fsync it; a checkpointer copies dirty table pages into the database file
// (random writes) and fsyncs it once the number of dirty buffers crosses a
// threshold. Under Block-Deadline, checkpoint fsyncs stall concurrent log
// commits (Fig 18); Split-Deadline's fsync scheduling keeps transaction
// tails low.
package sqlitesim

import (
	"time"

	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// Config parameterizes the database and workload.
type Config struct {
	// CheckpointThreshold is the dirty-buffer count that triggers a
	// checkpoint (the Fig 18 x-axis).
	CheckpointThreshold int
}

const (
	// tableBytes is the database file size.
	tableBytes int64 = 1 << 30
	// rowsPerTxn is how many random rows one transaction updates.
	rowsPerTxn int = 4
	// walRecordBytes is the log record size appended per transaction.
	walRecordBytes int64 = 4096
	// logFsyncDeadline and dbFsyncDeadline are the per-file deadline
	// settings for split-deadline (paper: 100 ms and 10 s).
	logFsyncDeadline = 100 * time.Millisecond
	dbFsyncDeadline  = 10 * time.Second
	// thinkTime between transactions.
	thinkTime = 2 * time.Millisecond
)

// DefaultConfig matches the paper's setup at simulation scale.
func DefaultConfig() Config {
	return Config{CheckpointThreshold: 1024}
}

// DB is a running simulated database.
type DB struct {
	k   *core.Kernel
	cfg Config

	table *fs.File
	wal   *fs.File

	writer *vfs.Process
	ckpt   *vfs.Process

	// dirtyRows holds row page indices updated since the last checkpoint.
	dirtyRows []int64
	ckptWake  *sim.WaitQueue

	// Latencies collects per-transaction commit latencies.
	Latencies metrics.Histogram
	// Checkpoints counts completed checkpoints.
	Checkpoints int
	txns        int64
}

// Open creates the database files and starts the writer and checkpointer
// processes on k.
func Open(k *core.Kernel, cfg Config) *DB {
	db := &DB{
		k:        k,
		cfg:      cfg,
		table:    k.FS.MkFileContiguous("/db/table", tableBytes),
		ckptWake: sim.NewWaitQueue(k.Env),
	}
	db.writer = k.VFS.NewProcess("sqlite-writer", 4)
	db.writer.Ctx.FsyncDeadline = logFsyncDeadline
	db.writer.Ctx.ReadDeadline = logFsyncDeadline
	db.ckpt = k.VFS.NewProcess("sqlite-ckpt", 4)
	db.ckpt.Ctx.FsyncDeadline = dbFsyncDeadline
	k.Env.Go("sqlite-writer", db.writerLoop)
	k.Env.Go("sqlite-ckpt", db.checkpointer)
	return db
}

// Txns returns the number of committed transactions.
func (db *DB) Txns() int64 { return db.txns }

func (db *DB) writerLoop(p *sim.Proc) {
	wal, err := db.k.FS.Create(p, db.writer.Ctx, "/db/wal")
	if err != nil {
		return
	}
	db.wal = wal
	tablePages := tableBytes / cache.PageSize
	rng := db.k.Env.Rand()
	var walOff int64
	for {
		start := p.Now()
		// Update rowsPerTxn random rows: read the page (may hit cache),
		// buffer the row update in memory, log it.
		for i := 0; i < rowsPerTxn; i++ {
			row := rng.Int63n(tablePages)
			db.k.VFS.Read(p, db.writer, db.table, row*cache.PageSize, cache.PageSize)
			db.dirtyRows = append(db.dirtyRows, row)
		}
		// Commit: append the log record and fsync the WAL.
		db.k.VFS.Write(p, db.writer, db.wal, walOff, walRecordBytes)
		walOff += walRecordBytes
		db.k.VFS.Fsync(p, db.writer, db.wal)
		db.Latencies.Add(p.Now().Sub(start))
		db.txns++
		if len(db.dirtyRows) >= db.cfg.CheckpointThreshold {
			db.ckptWake.Signal()
		}
		p.Sleep(thinkTime)
	}
}

// checkpointer copies dirty rows into the table file and fsyncs it.
func (db *DB) checkpointer(p *sim.Proc) {
	for {
		if len(db.dirtyRows) < db.cfg.CheckpointThreshold {
			db.ckptWake.WaitTimeout(p, time.Second)
			continue
		}
		rows := db.dirtyRows
		db.dirtyRows = nil
		for _, row := range rows {
			db.k.VFS.Write(p, db.ckpt, db.table, row*cache.PageSize, cache.PageSize)
		}
		db.k.VFS.Fsync(p, db.ckpt, db.table)
		// WAL space is reclaimed after a checkpoint.
		db.Checkpoints++
	}
}
