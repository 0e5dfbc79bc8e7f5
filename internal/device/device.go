// Package device models storage devices for the simulated stack. Three
// models implement the Disk interface:
//
//   - HDD: a mechanical disk with a distance-dependent seek model plus
//     rotational latency (after Ruemmler & Wilkes).
//   - SSD: a flash device with flat access latency and a modest write
//     penalty — the degenerate single-channel, single-die case.
//   - the FTL-backed SSD in internal/ssd: channel/die parallelism, a
//     page-mapped translation layer, and background garbage collection,
//     for experiments where GC-induced stalls matter.
//
// The first two live here; internal/ssd is its own package — one step
// above this one in the layer DAG, importing the Disk contract defined
// here — because it is a subsystem (FTL state machine plus a collector
// process), not a latency formula. Together the models supply
// the random-vs-sequential and foreground-vs-background cost asymmetries
// that every scheduler in the paper estimates, charges for, or exploits.
//
// All addressing is in 4 KiB blocks (matching the page size used by the
// cache and file-system layers).
package device

import (
	"time"
)

// BlockSize is the device block size in bytes (one cache page).
const BlockSize = 4096

// Op is a device operation direction.
type Op int

// Operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Disk models a storage device. Serve is stateful: it advances the
// head/NAND state, so calls must be made in dispatch order.
type Disk interface {
	// Name identifies the model (for reports).
	Name() string
	// Serve serves r starting at virtual time r.Now, updating internal
	// positioning state, and returns how long it took and where the time
	// went. HDDs charge a rotational miss when a "sequential" request
	// arrives after an idle gap (the target sector has rotated past) and
	// for barrier writes (sync commits must hit the platter: the drive
	// waits for the exact sector and drains its cache).
	Serve(r Request) Service
	// SeqBandwidth returns sustained sequential bandwidth in bytes/second,
	// the unit Split-Token normalizes costs to.
	SeqBandwidth() float64
	// Blocks returns the device capacity in blocks.
	Blocks() int64
}

// Request is one block request as the device sees it. Op, LBA, Blocks,
// Now and Barrier drive the timing models. The semantic tags below them
// are for wrappers that model durability (the fault plane); raw models
// ignore them.
type Request struct {
	Op     Op
	LBA    int64
	Blocks int
	// Now is the virtual time the device starts serving the request.
	Now time.Duration
	// Barrier marks sync-commit records that must flush the device cache.
	Barrier bool

	Sync    bool
	Journal bool
	Meta    bool
	// FileID is the inode a data request belongs to (0 for journal I/O).
	FileID int64
	// TxnID is the journal transaction the request serves: the descriptor
	// and commit record of the transaction, plus the ordered-mode data
	// flushes its commit forces (0 otherwise).
	TxnID int64
	// Pages is the file pages a data write covers (none otherwise).
	Pages PageRange
}

// PageRange is the file pages First..First+N-1 an I/O covers; zero is none.
type PageRange struct {
	First, N int64
}

// Service is a disk's answer to one Request. The block layer emits the
// device trace spans from it: positioning, then transfer, and a gc-wait
// span when GCStall is non-zero.
type Service struct {
	// Total is the device time from dispatch to completion.
	Total time.Duration
	// Position is the wait before media transfer began (seek + rotation,
	// or flash access latency and die queueing); Transfer is the rest of
	// the model's work. A raw model's Position and Transfer sum to Total;
	// a wrapper may lengthen Total alone (the fault plane's read retry).
	Position time.Duration
	Transfer time.Duration
	// GCStall is the part of the service spent waiting on resources held
	// by the device's background work (flash garbage collection); zero for
	// models without it.
	GCStall time.Duration
}

// DurabilityMarker is implemented by device wrappers that track durability
// promises (the fault plane's persistence log). The file system captures
// MediaWrites after an fsync has flushed its data and calls MarkDurable once
// the commit barrier is acknowledged, promising that every media write of
// ino with sequence below upTo survives any later crash.
type DurabilityMarker interface {
	// MediaWrites returns the number of media writes served so far.
	MediaWrites() int64
	// MarkDurable records the promise that ino's writes below upTo are
	// durable as of the current media-write sequence.
	MarkDurable(ino, upTo int64)
}

// HDD is a mechanical hard-disk model.
type HDD struct {
	// TrackSeek is the track-to-track (minimum non-zero) seek time.
	TrackSeek time.Duration
	// MaxSeek is the full-stroke seek time.
	MaxSeek time.Duration
	// RotationHalf is the average rotational latency (half a revolution).
	RotationHalf time.Duration
	// PerBlock is the media transfer time for one block.
	PerBlock time.Duration
	// NearThreshold is the block distance under which a miss costs only a
	// settle (same-cylinder) delay rather than seek+rotation.
	NearThreshold int64
	// Settle is the cost of a near miss.
	Settle time.Duration
	// SeqGap is the idle gap after which even a head-aligned request pays
	// a rotational miss (the sector has rotated past).
	SeqGap time.Duration
	// Capacity in blocks.
	Capacity int64

	head    int64
	lastEnd time.Duration
}

// NewHDD returns a model of a 7200 RPM 500 GB SATA drive roughly matching
// the paper's WD AAKX: ~125 MB/s sequential, ~8 ms average seek, 4.17 ms
// average rotational latency (~75 random 4 KiB IOPS).
func NewHDD() *HDD {
	return &HDD{
		TrackSeek:     800 * time.Microsecond,
		MaxSeek:       16 * time.Millisecond,
		RotationHalf:  4167 * time.Microsecond,
		PerBlock:      32 * time.Microsecond, // 4096 B / 128 MB/s
		NearThreshold: 256,                   // ~1 MiB: same-cylinder window
		Settle:        1 * time.Millisecond,
		SeqGap:        5 * time.Millisecond, // track cache hides sub-rotation gaps
		Capacity:      500 << 30 / BlockSize,
	}
}

// Name implements Disk.
func (d *HDD) Name() string { return "hdd" }

// Blocks implements Disk.
func (d *HDD) Blocks() int64 { return d.Capacity }

// SeqBandwidth implements Disk.
func (d *HDD) SeqBandwidth() float64 {
	return float64(BlockSize) / d.PerBlock.Seconds()
}

// seekTime models seek cost as min + (max-min)·sqrt(dist/capacity).
func (d *HDD) seekTime(dist int64) time.Duration {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(d.Capacity)
	if frac > 1 {
		frac = 1
	}
	// sqrt profile: short seeks are much cheaper than full stroke.
	return d.TrackSeek + time.Duration(float64(d.MaxSeek-d.TrackSeek)*sqrt(frac))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method; avoids importing math for a single call site and
	// keeps the model dependency-free.
	z := x
	for i := 0; i < 20; i++ {
		// float64(z*z) forces the product to round before the subtraction,
		// so no architecture may fuse it into an FMA and drift the seek
		// profile across platforms.
		z -= (float64(z*z) - x) / (2 * z)
	}
	return z
}

// Serve implements Disk.
func (d *HDD) Serve(r Request) Service {
	n := r.Blocks
	if n <= 0 {
		n = 1
	}
	dist := r.LBA - d.head
	if dist < 0 {
		dist = -dist
	}
	var position time.Duration
	switch {
	case dist == 0:
		// Head-aligned, but only free when the stream is continuous: after
		// an idle gap the sector has rotated past and the drive waits for
		// it to come around (this is why each journal commit costs a
		// rotation on a real disk).
		if r.Now-d.lastEnd > d.SeqGap {
			position = d.RotationHalf
		}
	case dist <= d.NearThreshold:
		position = d.Settle
	default:
		position = d.seekTime(dist) + d.RotationHalf
	}
	if r.Barrier && position < d.RotationHalf {
		// A flush barrier cannot coalesce with the stream: the drive waits
		// for the commit sector and drains its write cache.
		position = d.RotationHalf
	}
	d.head = r.LBA + int64(n)
	xfer := time.Duration(n) * d.PerBlock
	d.lastEnd = r.Now + position + xfer
	return Service{Total: position + xfer, Position: position, Transfer: xfer}
}

// SSD is a flash device model with flat access latency and a modest
// write penalty; random and sequential costs are nearly identical.
type SSD struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
	PerBlock     time.Duration
	Capacity     int64
}

// NewSSD returns a model of an 80 GB SATA SSD roughly matching the paper's
// Intel X25-M: ~250 MB/s sequential, ~85 µs random read latency.
func NewSSD() *SSD {
	return &SSD{
		ReadLatency:  85 * time.Microsecond,
		WriteLatency: 115 * time.Microsecond,
		PerBlock:     16 * time.Microsecond, // 4096 B / 256 MB/s
		Capacity:     80 << 30 / BlockSize,
	}
}

// Name implements Disk.
func (d *SSD) Name() string { return "ssd" }

// Blocks implements Disk.
func (d *SSD) Blocks() int64 { return d.Capacity }

// SeqBandwidth implements Disk.
func (d *SSD) SeqBandwidth() float64 {
	return float64(BlockSize) / d.PerBlock.Seconds()
}

// Serve implements Disk.
func (d *SSD) Serve(r Request) Service {
	n := r.Blocks
	if n <= 0 {
		n = 1
	}
	lat := d.ReadLatency
	if r.Op == Write {
		lat = d.WriteLatency
	}
	if r.Barrier {
		lat += d.WriteLatency // cache flush
	}
	xfer := time.Duration(n) * d.PerBlock
	return Service{Total: lat + xfer, Position: lat, Transfer: xfer}
}
