// Package hdfssim models a small HDFS deployment (paper §7.3): one
// namenode and N worker machines, each a full simulated kernel with its own
// disk and scheduler, sharing one virtual clock. Clients write files as
// fixed-size blocks; the namenode assigns each block a pipeline of three
// replicas; the client streams chunks through the pipeline. The
// client-to-worker protocol carries an *account* so each worker's
// Split-Token instance bills the right tenant — the paper's modification
// for distributed isolation (Fig 21).
package hdfssim

import (
	"fmt"
	"time"

	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

// Config parameterizes the cluster.
type Config struct {
	// Workers is the number of datanodes.
	Workers int
	// BlockBytes is the HDFS block size (64 MiB default; 16 MiB improves
	// balance in Fig 21b).
	BlockBytes int64
	// WorkerOpts configures each worker machine.
	WorkerOpts core.Options
	// Factory builds each worker's scheduler.
	Factory core.Factory
}

const (
	// replication is the pipeline depth.
	replication int = 3
	// chunkBytes is the streaming granularity.
	chunkBytes int64 = 1 << 20
	// netLatency is the per-chunk-per-hop network latency.
	netLatency = 200 * time.Microsecond
)

// DefaultConfig returns the paper's 7-worker, 3-replica cluster.
func DefaultConfig(factory core.Factory) Config {
	opts := core.DefaultOptions()
	return Config{
		Workers:    7,
		BlockBytes: 64 << 20,
		WorkerOpts: opts,
		Factory:    factory,
	}
}

// Cluster is a running simulated HDFS.
type Cluster struct {
	env     *sim.Env
	cfg     Config
	workers []*core.Kernel
	// nextPipeline is the namenode's rotating block-placement cursor.
	nextPipeline int
	nextBlockID  int64
}

// NewCluster builds the cluster on env.
func NewCluster(env *sim.Env, cfg Config) *Cluster {
	c := &Cluster{env: env, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		c.workers = append(c.workers, core.NewKernelOn(env, cfg.WorkerOpts, cfg.Factory))
	}
	return c
}

// Workers returns the datanode kernels (for scheduler configuration).
func (c *Cluster) Workers() []*core.Kernel { return c.workers }

// Env returns the shared simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// pipeline picks replication distinct workers for a block, rotating the
// starting worker (namenode block placement).
func (c *Cluster) pipeline() []*core.Kernel {
	n := len(c.workers)
	out := make([]*core.Kernel, 0, replication)
	for i := 0; i < replication && i < n; i++ {
		out = append(out, c.workers[(c.nextPipeline+i)%n])
	}
	c.nextPipeline = (c.nextPipeline + 1) % n
	return out
}

// Client is an HDFS client identity: a per-worker process carrying the
// tenant's account (RPC account propagation).
type Client struct {
	c       *Cluster
	name    string
	account string
	procs   map[*core.Kernel]*vfs.Process
	written int64
	start   sim.Time
}

// NewClient registers the tenant on every worker.
func (c *Cluster) NewClient(name, account string) *Client {
	cl := &Client{c: c, name: name, account: account, procs: make(map[*core.Kernel]*vfs.Process), start: c.env.Now()}
	for _, w := range c.workers {
		pr := w.VFS.NewProcess("hdfs-"+name, 4)
		pr.Ctx.Account = account
		cl.procs[w] = pr
	}
	return cl
}

// BytesWritten returns the client's total HDFS bytes written (pre-
// replication).
func (cl *Client) BytesWritten() int64 { return cl.written }

// MBps returns the client's HDFS write throughput since creation.
func (cl *Client) MBps(now sim.Time) float64 {
	if now <= cl.start {
		return 0
	}
	return float64(cl.written) / now.Sub(cl.start).Seconds() / (1 << 20)
}

// ResetStats restarts the throughput window.
func (cl *Client) ResetStats(now sim.Time) {
	cl.written = 0
	cl.start = now
}

// WriteLoop streams an endless HDFS file write: block by block through
// replica pipelines. Run it in a client process on the shared env.
func (cl *Client) WriteLoop(p *sim.Proc) {
	for {
		cl.writeBlock(p)
	}
}

// writeBlock writes one block through a fresh pipeline.
func (cl *Client) writeBlock(p *sim.Proc) {
	cfg := cl.c.cfg
	pipe := cl.c.pipeline()
	id := cl.c.nextBlockID
	cl.c.nextBlockID++
	files := make([]*fs.File, len(pipe))
	for i, w := range pipe {
		pr := cl.procs[w]
		f, err := w.VFS.Create(p, pr, fmt.Sprintf("/dn/%s_blk%d", cl.name, id))
		if err != nil {
			return
		}
		files[i] = f
	}
	var off int64
	for off < cfg.BlockBytes {
		n := chunkBytes
		if off+n > cfg.BlockBytes {
			n = cfg.BlockBytes - off
		}
		// Stream the chunk down the pipeline: one network hop plus a
		// buffered local write per replica.
		for i, w := range pipe {
			p.Sleep(netLatency)
			w.VFS.Write(p, cl.procs[w], files[i], off, n)
		}
		off += n
		cl.written += n
	}
}
