//go:build race

package cache

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions skip under it because instrumentation shifts alloc counts.
const raceEnabled = true
