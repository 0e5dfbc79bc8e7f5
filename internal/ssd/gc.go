// Background garbage collection: a device-internal process that watches
// the free pool and reclaims erase blocks while the watermark is breached.
// Victims are chosen greedily (fewest valid pages, lowest id on ties);
// their valid pages migrate to the die's GC append block, charged as
// internal read+program traffic on the victim's die, then the block is
// erased and returned to the free list. The scheduler gate (SetGCGate) can
// defer collection — the hook GC-aware split schedulers use to keep
// migrations off the dies while high-priority sync requests are in flight —
// but never below GCCritical, where the device must collect to keep
// accepting writes.

package ssd

import (
	"time"

	"splitio/internal/sim"
	"splitio/internal/trace"
)

// gcStep is one iteration of the collector, run to completion on the event
// loop: park until a write crosses the low-watermark, then collect one
// victim at a time, holding the victim's die for the migration and erase
// and pacing on the erase completion.
func (d *Device) gcStep() {
	if d.freeBlocks > d.cfg.GCLowWater {
		d.work.WaitFn(d.gcWaitFn)
		return
	}
	if d.freeBlocks > d.cfg.GCCritical && d.gate != nil && !d.gate() {
		// Deferred by the scheduler hint: re-check when the gate may
		// have opened (or a write pushes the pool to critical).
		d.work.WaitTimeoutFn(d.poll(), d.gcWaitFn)
		return
	}
	now := time.Duration(d.env.Now())
	done := d.collect(now)
	if done <= now {
		// No collectable victim right now (nothing invalid to reclaim);
		// back off instead of spinning at one instant.
		d.work.WaitTimeoutFn(d.poll(), d.gcWaitFn)
		return
	}
	// One victim in flight at a time: pace the loop to the erase
	// completion so collections serialize on virtual time.
	d.env.Schedule(done-now, d.gcStepFn)
}

func (d *Device) poll() time.Duration {
	if d.cfg.GCPoll > 0 {
		return d.cfg.GCPoll
	}
	return 500 * time.Microsecond
}

// victim returns the full block with the fewest valid pages (lowest id on
// ties), or -1 when no full block has anything to reclaim.
func (d *Device) victim() int32 {
	best := int32(-1)
	bestValid := int32(1 << 30)
	for b := 0; b < d.numBlocks; b++ {
		if d.state[b] != blockFull {
			continue
		}
		if v := d.valid[b]; v < bestValid {
			best, bestValid = int32(b), v
		}
	}
	if best < 0 || int(bestValid) == d.cfg.PagesPerBlock {
		// Every full block is fully valid: erasing any of them frees
		// nothing (migration would consume exactly what the erase returns).
		return -1
	}
	return best
}

// collect reclaims one victim block: migrate its valid pages to GC append
// blocks (same die when possible), charge the die for the reads, programs,
// and erase, and return the block to the free list. It returns the virtual
// time the erase completes (0 when there was no victim). collect never
// blocks — it is also the emergency path under ServiceTime — so the caller
// paces on the returned completion time.
func (d *Device) collect(now time.Duration) time.Duration {
	v := d.victim()
	if v < 0 {
		return 0
	}
	die := int(v) / d.blocksPerDie
	start := maxd(now, d.dieFree[die])
	base := v * int32(d.cfg.PagesPerBlock)
	moved := 0
	for i := 0; i < d.cfg.PagesPerBlock; i++ {
		phys := base + int32(i)
		lp := d.p2l[phys]
		if lp < 0 {
			continue
		}
		dst, ok := d.gcDest(die)
		if !ok {
			panic("ssd: no destination page for GC migration")
		}
		// Move the mapping without the remap invalidation dance: the whole
		// victim is erased below, so only the destination gains validity.
		d.p2l[phys] = -1
		d.valid[v]--
		d.l2p[lp] = dst
		d.p2l[dst] = lp
		d.valid[int(dst)/d.cfg.PagesPerBlock]++
		moved++
	}
	migEnd := start + time.Duration(moved)*(d.cfg.PageRead+d.cfg.PageProgram)
	eraseEnd := migEnd + d.cfg.BlockErase
	d.dieFree[die] = eraseEnd
	if eraseEnd > d.gcHeld[die] {
		d.gcHeld[die] = eraseEnd
	}
	d.state[v] = blockFree
	d.freeOf[die] = append(d.freeOf[die], v)
	d.freeBlocks++
	d.gcPages += int64(moved)
	d.erases++
	d.gcRuns++
	d.gcBusyNS += int64(eraseEnd - start)
	h := d.gcHash
	h = (h ^ uint64(uint32(v))) * fnvPrime
	h = (h ^ uint64(uint32(moved))) * fnvPrime
	d.gcHash = h
	if d.tr.Enabled() {
		if moved > 0 {
			d.tr.Record(trace.Event{
				Layer: trace.LayerDevice, Op: trace.OpGCMigrate, Label: d.Name(),
				PID: GCPID, Start: sim.Time(start), End: sim.Time(migEnd),
				LBA: int64(base), Blocks: moved, Flags: trace.FlagWrite,
			})
		}
		d.tr.Record(trace.Event{
			Layer: trace.LayerDevice, Op: trace.OpGCErase, Label: d.Name(),
			PID: GCPID, Start: sim.Time(migEnd), End: sim.Time(eraseEnd),
			LBA: int64(base), Blocks: d.cfg.PagesPerBlock, Flags: trace.FlagWrite,
		})
	}
	return eraseEnd
}

// gcDest returns the next migration destination page, preferring the
// victim's die (die-local copyback) and falling back to the nearest die
// with space, in deterministic order.
func (d *Device) gcDest(die int) (int32, bool) {
	for off := 0; off < d.dies; off++ {
		dst := die + off
		if dst >= d.dies {
			dst -= d.dies
		}
		if phys, ok := d.takePage(dst, true); ok {
			return phys, ok
		}
	}
	return 0, false
}
