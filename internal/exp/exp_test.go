package exp

import (
	"testing"

	"splitio/internal/sweep"
)

// small runs an experiment at reduced scale, its cells on one worker per
// CPU.
func small(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tab := e.Run(Options{Scale: 0.34, Seed: 1, Runner: &sweep.Runner{}})
	if tab.ID != id {
		t.Fatalf("table ID = %s, want %s", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s row width %d != header %d", id, len(row), len(tab.Header))
		}
	}
	return tab
}

func TestByID(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
	for _, e := range All {
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("%s not resolvable", e.ID)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	m := small(t, "fig1").Metrics
	// The split framework must keep A's worst-case far above CFQ's and
	// recover much faster.
	if m["split_min_mbps"] < 2*m["cfq_min_mbps"] {
		t.Fatalf("split min %.1f not well above cfq min %.1f", m["split_min_mbps"], m["cfq_min_mbps"])
	}
	if m["split_recovery_s"] > m["cfq_recovery_s"] {
		t.Fatalf("split recovery %.1fs slower than cfq %.1fs", m["split_recovery_s"], m["cfq_recovery_s"])
	}
}

func TestFig3Shape(t *testing.T) {
	m := small(t, "fig3").Metrics
	if m["deviation_from_ideal"] < 0.4 {
		t.Fatalf("CFQ writes too fair: deviation %.2f", m["deviation_from_ideal"])
	}
	if m["prio4_request_share"] < 0.9 {
		t.Fatalf("writeback did not dominate submissions: prio4 share %.2f", m["prio4_request_share"])
	}
}

func TestFig5Shape(t *testing.T) {
	m := small(t, "fig5").Metrics
	if m["p99_growth_factor"] < 3 {
		t.Fatalf("A's latency does not track B's flush size: growth %.1fx", m["p99_growth_factor"])
	}
}

func TestFig6Shape(t *testing.T) {
	m := small(t, "fig6").Metrics
	// SCS fails isolation: wide spread across B patterns.
	if m["a_stddev_mbps"] < 10 {
		t.Fatalf("SCS looks isolated (sd %.1f); it should not be", m["a_stddev_mbps"])
	}
	if m["a_min_mbps"] > 0.6*m["a_max_mbps"] {
		t.Fatalf("expected large swing: min %.1f max %.1f", m["a_min_mbps"], m["a_max_mbps"])
	}
}

func TestFig9Shape(t *testing.T) {
	m := small(t, "fig9").Metrics
	for _, k := range []string{"overhead_pct_1threads", "overhead_pct_10threads", "overhead_pct_100threads"} {
		if m[k] > 5 || m[k] < -5 {
			t.Fatalf("%s = %.1f%%, want ~0", k, m[k])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	m := small(t, "fig10").Metrics
	lo, hi := m["max_tag_mb_ratio10"], m["max_tag_mb_ratio50"]
	if hi < lo {
		t.Fatalf("tag memory should grow with dirty ratio: 10%%=%.1fMB 50%%=%.1fMB", lo, hi)
	}
	if hi <= 0 {
		t.Fatal("no tag memory recorded")
	}
}

func TestFig11Shape(t *testing.T) {
	m := small(t, "fig11").Metrics
	// Reads: both respect priority.
	if m["seq-read_cfq_deviation"] > 0.5 || m["seq-read_afq_deviation"] > 0.5 {
		t.Fatalf("read deviations: cfq %.2f afq %.2f", m["seq-read_cfq_deviation"], m["seq-read_afq_deviation"])
	}
	// Writes: CFQ fails, AFQ holds.
	if m["async-write_cfq_deviation"] < 2*m["async-write_afq_deviation"] {
		t.Fatalf("async write: cfq %.2f vs afq %.2f", m["async-write_cfq_deviation"], m["async-write_afq_deviation"])
	}
	if m["sync-rand-write_cfq_deviation"] < 1.5*m["sync-rand-write_afq_deviation"] {
		t.Fatalf("sync write: cfq %.2f vs afq %.2f", m["sync-rand-write_cfq_deviation"], m["sync-rand-write_afq_deviation"])
	}
	// Memory overwrites: both fast.
	if m["mem-overwrite_cfq_total_mbps"] < 500 || m["mem-overwrite_afq_total_mbps"] < 500 {
		t.Fatalf("mem overwrite totals: cfq %.0f afq %.0f", m["mem-overwrite_cfq_total_mbps"], m["mem-overwrite_afq_total_mbps"])
	}
}

func TestFig12Shape(t *testing.T) {
	m := small(t, "fig12").Metrics
	if m["hdd_block-deadline_p99_ms"] < 3*m["hdd_split-deadline_p99_ms"] {
		t.Fatalf("HDD: block p99 %.0fms vs split %.0fms, want >=3x", m["hdd_block-deadline_p99_ms"], m["hdd_split-deadline_p99_ms"])
	}
	if m["hdd_split-deadline_p99_ms"] > 400 {
		t.Fatalf("split p99 %.0fms too far from the 100ms goal", m["hdd_split-deadline_p99_ms"])
	}
}

func TestFig13Shape(t *testing.T) {
	fig6 := small(t, "fig6").Metrics
	fig13 := small(t, "fig13").Metrics
	if fig13["a_stddev_mbps"]*3 > fig6["a_stddev_mbps"] {
		t.Fatalf("split sd %.1f not well below SCS sd %.1f", fig13["a_stddev_mbps"], fig6["a_stddev_mbps"])
	}
}

func TestFig14Shape(t *testing.T) {
	m := small(t, "fig14").Metrics
	// Split must isolate on random reads where SCS fails badly.
	if m["read-rand_scs-token_a_slowdown"] < 2*m["read-rand_split-token_a_slowdown"] {
		t.Fatalf("read-rand slowdowns: scs %.2f split %.2f", m["read-rand_scs-token_a_slowdown"], m["read-rand_split-token_a_slowdown"])
	}
	// Memory-bound B is far faster under split.
	if m["write_mem_speedup"] < 10 {
		t.Fatalf("write-mem speedup = %.1fx, want large", m["write_mem_speedup"])
	}
	if m["read_mem_speedup"] < 1.2 {
		t.Fatalf("read-mem speedup = %.2fx, want > 1.2", m["read_mem_speedup"])
	}
}

func TestFig15Shape(t *testing.T) {
	m := small(t, "fig15").Metrics
	// I/O-bound B: flat in thread count.
	if m["seq-read_512_a_mbps"] < 0.7*m["seq-read_1_a_mbps"] {
		t.Fatalf("seq-read scaling: 1->%.1f 512->%.1f", m["seq-read_1_a_mbps"], m["seq-read_512_a_mbps"])
	}
	// Spin B: hurts A at 512 threads via CPU.
	if m["spin_512_a_mbps"] > 0.8*m["spin_1_a_mbps"] {
		t.Fatalf("spin should degrade A at 512 threads: 1->%.1f 512->%.1f", m["spin_1_a_mbps"], m["spin_512_a_mbps"])
	}
}

func TestFig16Shape(t *testing.T) {
	m := small(t, "fig16").Metrics
	if m["a_stddev_mbps"] > 0.25*m["a_mean_mbps"] {
		t.Fatalf("XFS data isolation too loose: sd %.1f mean %.1f", m["a_stddev_mbps"], m["a_mean_mbps"])
	}
}

func TestFig17Shape(t *testing.T) {
	m := small(t, "fig17").Metrics
	// ext4 throttles B's creates; partial XFS does not.
	ext4 := m["ext4_sleep0s_creates"]
	xfs := m["xfs_sleep0s_creates"]
	if xfs < 3*ext4 {
		t.Fatalf("creates/s: ext4 %.1f xfs %.1f, want xfs >> ext4", ext4, xfs)
	}
}

func TestFig18Shape(t *testing.T) {
	m := small(t, "fig18").Metrics
	if m["p999_improvement_1024"] < 2 {
		t.Fatalf("split p99.9 improvement at 1K buffers = %.1fx, want >= 2", m["p999_improvement_1024"])
	}
}

func TestFig19Shape(t *testing.T) {
	m := small(t, "fig19").Metrics
	if m["block-deadline_miss15ms"] <= 0 {
		t.Fatal("no fsync freeze under block-deadline")
	}
	if m["split-deadline_miss15ms"] > m["block-deadline_miss15ms"]/2 {
		t.Fatalf("split miss %.4f not well below block %.4f", m["split-deadline_miss15ms"], m["block-deadline_miss15ms"])
	}
}

func TestFig20Shape(t *testing.T) {
	m := small(t, "fig20").Metrics
	// Random B guest breaks SCS isolation but not split.
	if m["read-rand_scs-token_a_mbps"] > 0.7*m["read-rand_split-token_a_mbps"] {
		t.Fatalf("A under rand B: scs %.1f split %.1f", m["read-rand_scs-token_a_mbps"], m["read-rand_split-token_a_mbps"])
	}
	// Memory workloads: guest cache makes both schedulers comparable.
	scs, split := m["write-mem_scs-token_b_mbps"], m["write-mem_split-token_b_mbps"]
	if scs < split/5 {
		t.Fatalf("guest cache should equalize mem workloads: scs %.1f split %.1f", scs, split)
	}
}

func TestFig21Shape(t *testing.T) {
	m := small(t, "fig21").Metrics
	// Tighter caps on the throttled group give the unthrottled group more.
	if m["blk64_cap8_unthrottled"] <= m["blk64_cap64_unthrottled"] {
		t.Fatalf("unthrottled gains missing: cap8 %.1f cap64 %.1f", m["blk64_cap8_unthrottled"], m["blk64_cap64_unthrottled"])
	}
	// Throttled group respects the bound.
	if m["blk64_cap8_throttled"] > 1.3*m["blk64_cap8_bound"] {
		t.Fatalf("throttled group above bound: %.1f > %.1f", m["blk64_cap8_throttled"], m["blk64_cap8_bound"])
	}
	// Smaller blocks bring throughput closer to the bound.
	gap64 := m["blk64_cap16_bound"] - m["blk64_cap16_throttled"]
	gap16 := m["blk16_cap16_bound"] - m["blk16_cap16_throttled"]
	if gap16 > gap64+5 {
		t.Fatalf("16MB blocks should close the gap: gap64 %.1f gap16 %.1f", gap64, gap16)
	}
}

func TestTable1Shape(t *testing.T) {
	m := small(t, "table1").Metrics
	checks := map[string]float64{
		"block_cause_mapping":   0,
		"split_cause_mapping":   1,
		"scs_cost_estimation":   0,
		"split_cost_estimation": 1,
		"block_reordering":      0,
		"split_reordering":      1,
	}
	for k, want := range checks {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestTables2And3(t *testing.T) {
	small(t, "table2")
	small(t, "table3")
}

func TestAblationPromptCharge(t *testing.T) {
	m := small(t, "abl-prompt").Metrics
	if m["overshoot_factor"] < 50 {
		t.Fatalf("block-only charging should overshoot massively, got %.0fx", m["overshoot_factor"])
	}
}

func TestAblationXFSFull(t *testing.T) {
	m := small(t, "abl-xfsfull").Metrics
	if m["creates_full"]*3 > m["creates_partial"] {
		t.Fatalf("full integration should throttle creates: partial=%.2f full=%.2f",
			m["creates_partial"], m["creates_full"])
	}
}

func TestAblationCOWGC(t *testing.T) {
	m := small(t, "abl-cowgc").Metrics
	if m["a_mbps"] < 60 {
		t.Fatalf("reader not isolated under COW churn: %.1f MB/s", m["a_mbps"])
	}
	if m["b_mbps"] > 10 {
		t.Fatalf("churning tenant evaded its cap: %.1f MB/s", m["b_mbps"])
	}
}
