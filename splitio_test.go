package splitio

import (
	"strings"
	"testing"
	"time"
)

func TestSchedulersList(t *testing.T) {
	names := Schedulers()
	want := []string{"afq", "block-deadline", "cfq", "gc-afq", "noop", "scs-token", "split-deadline", "split-pdflush", "split-token"}
	if len(names) != len(want) {
		t.Fatalf("Schedulers() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Schedulers() = %v, want %v", names, want)
		}
	}
}

func TestNewMachineUnknownScheduler(t *testing.T) {
	if _, err := NewMachine(WithScheduler("bogus")); err == nil {
		t.Fatal("expected error for unknown scheduler")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestNewMachineUnknownDiskAndFS: an unknown disk or file-system kind is an
// error naming the offender and the known kinds, not a silent fallback to
// the HDD and ext4 defaults.
func TestNewMachineUnknownDiskAndFS(t *testing.T) {
	for _, c := range []struct {
		opt  Option
		want []string
	}{
		{WithDisk("bogus"), []string{`"bogus"`, "hdd", "ssd", "ftlssd"}},
		{WithFS("zfs"), []string{`"zfs"`, "ext4", "xfs", "cow"}},
	} {
		m, err := NewMachine(c.opt)
		if err == nil {
			m.Close()
			t.Errorf("NewMachine accepted an unknown kind (want an error naming %v)", c.want)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not name %s", err, w)
			}
		}
	}
}

func TestEverySchedulerBoots(t *testing.T) {
	for _, name := range Schedulers() {
		m := New(WithScheduler(name))
		f := m.CreateContiguousFile("/data", 64<<20)
		p := m.Spawn("r", ProcOpts{}, func(task *Task) {
			var off int64
			for {
				task.Read(f, off, 1<<20)
				off = (off + 1<<20) % (63 << 20)
			}
		})
		m.Run(2 * time.Second)
		if p.BytesRead() == 0 {
			t.Errorf("%s: reader made no progress", name)
		}
		m.Close()
	}
}

func TestFTLSSDDiskOption(t *testing.T) {
	m := New(WithDisk("ftlssd"), WithScheduler("gc-afq"), WithSeed(1))
	defer m.Close()
	if got := m.Kernel().Disk.Name(); got != "ftlssd" {
		t.Fatalf("disk = %q, want ftlssd", got)
	}
	f := m.CreateContiguousFile("/w", 32<<20)
	p := m.Spawn("w", ProcOpts{}, func(task *Task) {
		var off int64
		for {
			task.Write(f, off, 1<<20)
			off = (off + 1<<20) % (31 << 20)
		}
	})
	m.Run(2 * time.Second)
	if p.BytesWritten() == 0 {
		t.Fatal("writer made no progress on ftlssd")
	}
}

func TestWriteFsyncRoundTrip(t *testing.T) {
	m := New(WithScheduler("split-deadline"))
	defer m.Close()
	var fsynced bool
	m.Spawn("w", ProcOpts{FsyncDeadline: 100 * time.Millisecond}, func(task *Task) {
		f, err := task.Create("/log")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		task.Write(f, 0, 4096)
		task.Fsync(f)
		fsynced = true
	})
	m.Run(time.Minute)
	if !fsynced {
		t.Fatal("fsync never completed")
	}
}

func TestTokenLimitWiring(t *testing.T) {
	m := New(WithScheduler("split-token"))
	defer m.Close()
	if err := m.SetTokenLimit("acct", 1<<20, 1<<20); err != nil {
		t.Fatalf("SetTokenLimit: %v", err)
	}
	m2 := New(WithScheduler("cfq"))
	defer m2.Close()
	if err := m2.SetTokenLimit("acct", 1, 1); err == nil {
		t.Fatal("CFQ should reject token limits")
	}
}

func TestProcessStats(t *testing.T) {
	m := New(WithScheduler("noop"))
	defer m.Close()
	f := m.CreateContiguousFile("/d", 32<<20)
	p := m.Spawn("r", ProcOpts{}, func(task *Task) {
		for {
			task.Read(f, 0, 1<<20)
			task.Sleep(10 * time.Millisecond)
		}
	})
	m.Run(time.Second)
	if p.MBps() <= 0 {
		t.Fatal("MBps <= 0")
	}
	p.ResetStats()
	if p.BytesRead() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	m.Run(time.Second)
	if p.BytesRead() == 0 {
		t.Fatal("no progress after reset")
	}
}

func TestTaskHelpers(t *testing.T) {
	m := New(WithScheduler("noop"))
	defer m.Close()
	m.Spawn("x", ProcOpts{}, func(task *Task) {
		if err := task.Mkdir("/dir"); err != nil {
			t.Errorf("Mkdir: %v", err)
		}
		f, err := task.Create("/dir/file")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		task.Write(f, 0, 8192)
		if f.Size() != 8192 {
			t.Errorf("Size = %d", f.Size())
		}
		if f.Path() != "/dir/file" {
			t.Errorf("Path = %s", f.Path())
		}
		got, err := task.Open("/dir/file")
		if err != nil || got.Size() != 8192 {
			t.Error("Open failed")
		}
		if err := task.Unlink("/dir/file"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if _, err := task.Open("/dir/file"); err == nil {
			t.Error("Open after unlink succeeded")
		}
		before := task.Now()
		task.Sleep(5 * time.Millisecond)
		if task.Now()-before != 5*time.Millisecond {
			t.Error("Sleep did not advance virtual time")
		}
		task.Spin(time.Millisecond)
		if n := task.Rand63n(10); n < 0 || n >= 10 {
			t.Errorf("Rand63n out of range: %d", n)
		}
	})
	m.Run(time.Minute)
}

func TestIdleAndPrioOpts(t *testing.T) {
	m := New(WithScheduler("cfq"))
	defer m.Close()
	p := m.Spawn("idle", ProcOpts{Idle: true, Prio: 7, SetPrio: true}, func(task *Task) {})
	if p.pr.Ctx.Prio != 7 {
		t.Fatalf("prio = %d", p.pr.Ctx.Prio)
	}
	p2 := m.Spawn("default", ProcOpts{}, func(task *Task) {})
	if p2.pr.Ctx.Prio != 4 {
		t.Fatalf("default prio = %d", p2.pr.Ctx.Prio)
	}
	m.Run(time.Millisecond)
}

func TestDeterminismAcrossMachines(t *testing.T) {
	run := func() int64 {
		m := New(WithScheduler("split-token"), WithSeed(7))
		defer m.Close()
		f := m.CreateContiguousFile("/d", 256<<20)
		p := m.Spawn("r", ProcOpts{}, func(task *Task) {
			for {
				off := task.Rand63n(200) * (1 << 20)
				task.Read(f, off, 1<<20)
			}
		})
		m.Run(5 * time.Second)
		return p.BytesRead()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
