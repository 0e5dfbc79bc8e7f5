package fs

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// lookupBlock maps file block fileBlk of file to its disk block, if mapped.
func (f *FS) lookupBlock(file *File, fileBlk int64) (int64, bool) {
	if i := extentAt(file.extents, fileBlk); i < len(file.extents) && file.extents[i].fileBlk <= fileBlk {
		e := file.extents[i]
		return e.diskBlk + (fileBlk - e.fileBlk), true
	}
	return 0, false
}

// refExtents is the reference model of a file's extent list: allocate
// appends (or merges with the last extent) and re-sorts, and remapRange
// rebuilds the list and re-sorts it. The live code must edit its list into
// the same slice, element for element.
type refExtents struct {
	extents []extent
	cursor  int64
	garbage int64
}

func (m *refExtents) allocate(fileBlk, n int64) int64 {
	diskBlk := m.cursor
	m.cursor += n
	if len(m.extents) > 0 {
		lastE := &m.extents[len(m.extents)-1]
		if lastE.fileBlk+lastE.n == fileBlk && lastE.diskBlk+lastE.n == diskBlk {
			lastE.n += n
			return diskBlk
		}
	}
	m.extents = append(m.extents, extent{fileBlk: fileBlk, diskBlk: diskBlk, n: n})
	sort.Slice(m.extents, func(i, j int) bool {
		return m.extents[i].fileBlk < m.extents[j].fileBlk
	})
	return diskBlk
}

func (m *refExtents) remapRange(fileBlk, n, diskBlk int64) int64 {
	var garbage int64
	var out []extent
	end := fileBlk + n
	for _, e := range m.extents {
		eEnd := e.fileBlk + e.n
		if eEnd <= fileBlk || e.fileBlk >= end {
			out = append(out, e)
			continue
		}
		if e.fileBlk < fileBlk {
			out = append(out, extent{fileBlk: e.fileBlk, diskBlk: e.diskBlk, n: fileBlk - e.fileBlk})
		}
		if eEnd > end {
			off := end - e.fileBlk
			out = append(out, extent{fileBlk: end, diskBlk: e.diskBlk + off, n: eEnd - end})
		}
		garbage += min(eEnd, end) - max(e.fileBlk, fileBlk)
	}
	out = append(out, extent{fileBlk: fileBlk, diskBlk: diskBlk, n: n})
	sort.Slice(out, func(i, j int) bool { return out[i].fileBlk < out[j].fileBlk })
	m.extents = out
	return garbage
}

func (m *refExtents) lookup(fileBlk int64) (int64, bool) {
	for _, e := range m.extents {
		if fileBlk >= e.fileBlk && fileBlk < e.fileBlk+e.n {
			return e.diskBlk + (fileBlk - e.fileBlk), true
		}
	}
	return 0, false
}

// TestExtentEditsMatchReference runs random sequences of delayed
// allocations, copy-on-write remaps and cleaner relocations against the
// file system and the reference model, and requires identical extent
// lists, disk cursors, garbage counts and lookups after every step.
func TestExtentEditsMatchReference(t *testing.T) {
	const span = 512 // file blocks the operations touch
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &FS{allocCursor: 1024}
		file := &File{}
		ref := &refExtents{cursor: 1024}
		var stale []extent // a relocation's extent copy, taken a few steps back
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				// Delayed allocation maps only an unmapped run.
				start := rng.Int63n(span)
				if _, ok := ref.lookup(start); ok {
					continue
				}
				n := int64(1)
				for limit := 1 + rng.Int63n(64); n < limit; n++ {
					if _, ok := ref.lookup(start + n); ok {
						break
					}
				}
				got, want := f.allocate(file, start, n), ref.allocate(start, n)
				if got != want {
					t.Fatalf("seed %d step %d: allocate(%d, %d) = %d, want %d", seed, step, start, n, got, want)
				}
			case op < 8:
				// A copy-on-write flush remaps any run, mapped or not.
				start, n := rng.Int63n(span), 1+rng.Int63n(48)
				diskBlk := ref.cursor
				ref.cursor += n
				ref.garbage += ref.remapRange(start, n, diskBlk)
				if got := f.cowRemap(file, start, n); got != diskBlk {
					t.Fatalf("seed %d step %d: cowRemap(%d, %d) = %d, want %d", seed, step, start, n, got, diskBlk)
				}
			default:
				// The cleaner moves an extent from its copy of the list,
				// which later flushes may have remapped since.
				if rng.Intn(3) == 0 || len(stale) == 0 {
					stale = append([]extent(nil), ref.extents...)
				}
				if len(stale) == 0 {
					continue
				}
				e := stale[rng.Intn(len(stale))]
				n := min(e.n, 1+rng.Int63n(32))
				got := f.remapRange(file, e.fileBlk, n, f.alloc(n))
				want := ref.remapRange(e.fileBlk, n, ref.cursor)
				ref.cursor += n
				if got != want {
					t.Fatalf("seed %d step %d: relocation garbage = %d, want %d", seed, step, got, want)
				}
			}
			checkExtentsMatch(t, f, file, ref, rng, seed, step)
		}
	}
}

func checkExtentsMatch(t *testing.T, f *FS, file *File, ref *refExtents, rng *rand.Rand, seed int64, step int) {
	t.Helper()
	if len(file.extents) != len(ref.extents) {
		t.Fatalf("seed %d step %d: %d extents, want %d\n got %v\nwant %v", seed, step, len(file.extents), len(ref.extents), file.extents, ref.extents)
	}
	for i := range ref.extents {
		if file.extents[i] != ref.extents[i] {
			t.Fatalf("seed %d step %d: extent %d = %+v, want %+v", seed, step, i, file.extents[i], ref.extents[i])
		}
	}
	for i, e := range file.extents {
		if e.n <= 0 {
			t.Fatalf("seed %d step %d: empty extent %+v", seed, step, e)
		}
		if i > 0 && file.extents[i-1].fileBlk+file.extents[i-1].n > e.fileBlk {
			t.Fatalf("seed %d step %d: extents %d and %d unsorted or overlapping: %v", seed, step, i-1, i, file.extents)
		}
	}
	if f.allocCursor != ref.cursor || f.garbageBlocks != ref.garbage {
		t.Fatalf("seed %d step %d: cursor/garbage = %d/%d, want %d/%d", seed, step, f.allocCursor, f.garbageBlocks, ref.cursor, ref.garbage)
	}
	for k := 0; k < 8; k++ {
		blk := rng.Int63n(600)
		gotD, gotOK := f.lookupBlock(file, blk)
		wantD, wantOK := ref.lookup(blk)
		if gotD != wantD || gotOK != wantOK {
			t.Fatalf("seed %d step %d: lookupBlock(%d) = %d,%v, want %d,%v", seed, step, blk, gotD, gotOK, wantD, wantOK)
		}
	}
}

// refEachRun is the per-page reference for eachRun: it looks each of the
// ascending page indices idxs up on its own and cuts them into runs
// idxs[i:j], extending a run while the next page is consecutive and, for a
// mapped run, next on disk and within MaxRunBlocks.
func refEachRun(f *FS, file *File, idxs []int64, fn func(i, j int, diskBlk int64, mapped bool)) {
	for i := 0; i < len(idxs); {
		diskBlk, mapped := f.lookupBlock(file, idxs[i])
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 && (!mapped || j-i < f.cfg.MaxRunBlocks) {
			next, ok := f.lookupBlock(file, idxs[j])
			if ok != mapped || mapped && next != diskBlk+int64(j-i) {
				break
			}
			j++
		}
		fn(i, j, diskBlk, mapped)
		i = j
	}
}

// runCut is one run eachRun hands out.
type runCut struct {
	first, n, diskBlk int64
	mapped            bool
}

// cutsOf returns eachRun's cuts of pages first..first+n-1, allocating each
// unmapped run as the flush path does when alloc is set.
func cutsOf(f *FS, file *File, first, n int64, alloc bool) []runCut {
	var got []runCut
	f.eachRun(file, first, n, func(first, n, diskBlk int64, mapped bool) {
		got = append(got, runCut{first, n, diskBlk, mapped})
		if alloc && !mapped {
			f.allocate(file, first, n)
		}
	})
	return got
}

// refCutsOf is cutsOf on the per-page reference.
func refCutsOf(f *FS, file *File, first, n int64, alloc bool) []runCut {
	idxs := make([]int64, n)
	for i := range idxs {
		idxs[i] = first + int64(i)
	}
	var want []runCut
	refEachRun(f, file, idxs, func(i, j int, diskBlk int64, mapped bool) {
		want = append(want, runCut{idxs[i], int64(j - i), diskBlk, mapped})
		if alloc && !mapped {
			f.allocate(file, idxs[i], int64(j-i))
		}
	})
	return want
}

// TestEachRunMatchesPerPage builds random extent lists from delayed
// allocations, copy-on-write remaps (some back to back, which leaves
// neighbours contiguous on disk) and cleaner relocations, and requires the
// extent walk to cut random page ranges, with holes and past the last
// extent, exactly as the per-page reference does, at MaxRunBlocks of 1, 4
// and 256. It also cuts with delayed allocation mapping each unmapped run
// during the walk, and requires the same cuts, extents and disk cursor.
func TestEachRunMatchesPerPage(t *testing.T) {
	const span = 512 // file blocks the edits touch
	for _, maxRun := range []int{1, 4, 256} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			f := &FS{cfg: Config{MaxRunBlocks: maxRun}, allocCursor: 1024}
			file := &File{}
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op < 3:
					start := rng.Int63n(span)
					n := int64(1)
					if _, ok := f.lookupBlock(file, start); ok {
						continue
					}
					for limit := 1 + rng.Int63n(64); n < limit; n++ {
						if _, ok := f.lookupBlock(file, start+n); ok {
							break
						}
					}
					f.allocate(file, start, n)
				case op < 6:
					f.cowRemap(file, rng.Int63n(span), 1+rng.Int63n(48))
				case op < 8:
					start, n := rng.Int63n(span), 1+rng.Int63n(16)
					f.cowRemap(file, start, n)
					f.cowRemap(file, start+n, 1+rng.Int63n(16))
				default:
					if len(file.extents) == 0 {
						continue
					}
					e := file.extents[rng.Intn(len(file.extents))]
					n := min(e.n, 1+rng.Int63n(32))
					f.remapRange(file, e.fileBlk, n, f.alloc(n))
				}
				for k := 0; k < 4; k++ {
					first, n := rng.Int63n(span+64), 1+rng.Int63n(300)
					alloc := k%2 == 1
					fGot, fileGot := &FS{cfg: f.cfg, allocCursor: f.allocCursor}, &File{extents: slices.Clone(file.extents)}
					fWant, fileWant := &FS{cfg: f.cfg, allocCursor: f.allocCursor}, &File{extents: slices.Clone(file.extents)}
					got := cutsOf(fGot, fileGot, first, n, alloc)
					want := refCutsOf(fWant, fileWant, first, n, alloc)
					if !slices.Equal(got, want) {
						t.Fatalf("max %d seed %d step %d: cuts of %d+%d (alloc %v) over %v\n got %v\nwant %v",
							maxRun, seed, step, first, n, alloc, file.extents, got, want)
					}
					if !slices.Equal(fileGot.extents, fileWant.extents) || fGot.allocCursor != fWant.allocCursor {
						t.Fatalf("max %d seed %d step %d: allocating %d+%d left extents %v cursor %d, want %v cursor %d",
							maxRun, seed, step, first, n, fileGot.extents, fGot.allocCursor, fileWant.extents, fWant.allocCursor)
					}
				}
			}
		}
	}
}
