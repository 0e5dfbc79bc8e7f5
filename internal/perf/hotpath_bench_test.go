package perf

import "testing"

// BenchmarkCountDisabled pins the disabled-path contract: one atomic load,
// zero allocations. This is the cost every instrumented layer pays on every
// call in a normal (unprofiled) run.
func BenchmarkCountDisabled(b *testing.B) {
	ResetForTest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(BucketCache)
	}
}

// BenchmarkCountEnabled is the counted path of a profiled run.
func BenchmarkCountEnabled(b *testing.B) {
	ResetForTest()
	defer ResetForTest()
	Enable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(BucketCache)
	}
}
