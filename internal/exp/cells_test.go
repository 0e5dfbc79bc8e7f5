package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"splitio/internal/sim"
	"splitio/internal/sweep"
)

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestRunCellsPanicNamesCell: a cell body that panics, whether in the cell
// itself or in a simulated process, makes runCells panic with that cell's
// key (experiment, config, device, scale and seed), serially and across a
// worker pool.
func TestRunCellsPanicNamesCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := Options{Scale: 0.05, Seed: 7, Device: "ssd", Runner: &sweep.Runner{Workers: workers}}
			for _, tc := range []struct{ name, want string }{
				{"cell", "panicked: cell 3 exploded"},
				{"process", `process "exploder" panicked at 1ms: process exploded`},
			} {
				cells := make([]cell[int], 6)
				for i := range cells {
					cells[i] = cell[int]{fmt.Sprintf("n=%d", i), func() int {
						if i != 3 {
							return i
						}
						if tc.name == "cell" {
							panic("cell 3 exploded")
						}
						env := sim.NewEnv(o.Seed)
						defer env.Close()
						env.Go("exploder", func(p *sim.Proc) {
							p.Sleep(time.Millisecond)
							panic("process exploded")
						})
						env.RunAll()
						return i
					}}
				}
				msg := fmt.Sprint(panicOf(func() { runCells(o, "probe", cells) }))
				key := "exp: sweep: cell probe[n=3 device=ssd scale=0.05 seed=7]"
				if !strings.HasPrefix(msg, key) || !strings.Contains(msg, tc.want) {
					t.Errorf("%s panic: runCells panicked with %q, want %q naming %q", tc.name, msg, key, tc.want)
				}
			}
		})
	}
}
