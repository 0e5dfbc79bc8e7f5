// Command calibrate times a fixed workload shaped like the page cache's hot
// paths — map probes, inserts and deletes over a multi-megabyte working
// set, small allocations the GC must collect, and, as in TakeDirty, keys
// collected by map iteration and ordered with sort.Slice — and prints the
// mean time of its rounds in seconds. The benchmark runs it around every
// rep and divides host speed out of its timings; the mean, not the median,
// because a rep pays for the host's slow spells too. It imports nothing
// from the simulator, so no change to the simulator can change what it
// measures.
package main

import (
	"fmt"
	"sort"
	"time"
)

const (
	rounds     = 3
	iterations = 1_000_000
	keys       = 1 << 17
	batch      = 2048
)

type node struct {
	key, hits uint64
	_         [4]uint64
}

// round does the same amount of work on every call: a xorshift stream
// drives map inserts, hits and deletes, and every 1024 steps a batch of
// keys is collected from the map and sorted.
func round() time.Duration {
	start := time.Now()
	m := make(map[uint64]*node)
	picked := make([]uint64, 0, batch)
	x := uint64(88172645463325252)
	for i := 0; i < iterations; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % keys
		if n := m[k]; n != nil {
			n.hits++
		} else {
			m[k] = &node{key: k}
		}
		if i%4 == 0 {
			delete(m, (x>>24)%keys)
		}
		if i%1024 == 0 {
			picked = picked[:0]
			for k := range m {
				picked = append(picked, k)
				if len(picked) == batch {
					break
				}
			}
			sort.Slice(picked, func(a, b int) bool { return picked[a] < picked[b] })
		}
	}
	return time.Since(start)
}

func main() {
	var total time.Duration
	for i := 0; i < rounds; i++ {
		total += round()
	}
	fmt.Println(total.Seconds() / rounds)
}
