package afq

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// TestUnlinkWhileGatedSchedule pins AFQ's buffer-free path, which no paper
// experiment reaches: five writers, one of them idle-class, write files of
// random size through the admission gate, sometimes fsync them, and unlink
// them while pages are still dirty. Each such unlink fires buffer-free,
// and with it the admission pump, while other writers wait at the gate.
// The hash of the newest 1<<16 events and the event counts are those the
// per-page hooks produced before the hooks fired per chunk run.
func TestUnlinkWhileGatedSchedule(t *testing.T) {
	tr := trace.New()
	tail := &schedtest.Tail{N: 1 << 16}
	var count opCount
	tr.Attach(tail)
	tr.Attach(&count)
	tr.Enable()
	k := schedtest.Kernel(t, Factory, func(o *core.Options) { o.Tracer = tr })
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), i, func(p *sim.Proc, pr *vfs.Process) {
			rng := rand.New(rand.NewSource(int64(i)))
			if i == 4 {
				pr.Ctx.Class = block.ClassIdle
			}
			for n := 0; ; n++ {
				path := fmt.Sprintf("/f%d_%d", i, n)
				f, err := k.VFS.Create(p, pr, path)
				if err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
				size := int64(1+rng.Intn(24)) << 20
				for off := int64(0); off < size; off += 1 << 20 {
					k.VFS.Write(p, pr, f, off, 1<<20)
				}
				if rng.Intn(3) == 0 {
					k.VFS.Fsync(p, pr, f)
				}
				p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				k.VFS.Unlink(p, pr, path)
			}
		})
	}
	k.Run(3 * time.Second)
	got := fmt.Sprintf("events=%d frees=%d trace=%s", count.events, count.frees, schedtest.TraceHash(tail.Events()))
	const want = "events=248014 frees=81152 trace=07e6d87fb399dfdd0c2aeeac71c4daa518ad72bdd5d0fe7f49e9ed26c17f07c3"
	if got != want {
		t.Fatalf("schedule moved:\n got %s\nwant %s", got, want)
	}
}

// opCount is a trace sink that counts events and buffer-free events.
type opCount struct{ events, frees int }

// Consume implements trace.Sink.
func (c *opCount) Consume(ev trace.Event) {
	c.events++
	if ev.Op == trace.OpBufferFree {
		c.frees++
	}
}
