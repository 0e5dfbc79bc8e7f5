package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer
// attribution reads: every sample's stack as function names, leaf first,
// with the CPU time it stands for.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	// stack lists function names from the leaf outwards; a location with
	// inlined calls contributes the inlined callee before its caller.
	stack []string
	count int64
	ns    int64
}

// parseCPUProfile decodes a gzip-compressed pprof profile.proto as written
// by pprof.StartCPUProfile. It reads only the fields attribution needs
// (sample, location, function, string_table, sample_type), with a
// stdlib-only protobuf wire reader so the benchmark adds no dependency.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indexes
		raws        []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> name string index
	)
	err = walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var st [2]uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					st[f-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.values, err = appendPacked(s.values, v, b)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	countIdx, nsIdx := -1, -1
	for i, st := range sampleTypes {
		switch {
		case str(st[0]) == "samples" && str(st[1]) == "count":
			countIdx = i
		case str(st[0]) == "cpu" && str(st[1]) == "nanoseconds":
			nsIdx = i
		}
	}
	if countIdx < 0 || nsIdx < 0 {
		return nil, errors.New("pprof: not a CPU profile (no samples/count and cpu/nanoseconds sample types)")
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(raws))}
	for _, r := range raws {
		if len(r.values) != len(sampleTypes) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d sample types", len(r.values), len(sampleTypes))
		}
		s := cpuSample{count: int64(r.values[countIdx]), ns: int64(r.values[nsIdx])}
		for _, loc := range r.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b the payload of a length-delimited field.
func walkFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("bad length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field that arrived either packed
// (b holds varints) or as one unpacked varint v.
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
