package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that runtime/pprof
// writes: just enough to fold CPU samples by the package of their leaf
// frame. It is the only layer split available for the serial workloads
// until the program carries spans of its own.

// protoField is one decoded field: a varint value or a length-delimited
// payload.
type protoField struct {
	num   int
	value uint64
	bytes []byte
}

var errProto = errors.New("profile: malformed protobuf")

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields walks one message, calling fn per field.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.value, rest, err = uvarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = uvarint(rest); err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.bytes, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints decodes a repeated integer field, packed or not.
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.value), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// foldProfile returns each layer's share of the CPU samples in a gzipped
// pprof profile, attributing a sample to the package of its innermost
// (leaf, inlining included) function. The shares sum to 1; the second result
// is the sample count.
func foldProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}

	type sample struct{ leaf, count uint64 }
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → innermost function id
	funcName := map[uint64]uint64{} // function id → string-table index
	var strs []string

	err = fields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample{location_id=1, value=2}
			var locs, vals []uint64
			err := fields(f.bytes, func(g protoField) (err error) {
				switch g.num {
				case 1:
					locs, err = repeatedVarints(g, locs)
				case 2:
					vals, err = repeatedVarints(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[0]})
			}
		case 4: // Location{id=1, line=4{function_id=1}}; line[0] is innermost
			var id, fn uint64
			seen := false
			err := fields(f.bytes, func(g protoField) error {
				switch {
				case g.num == 1:
					id = g.value
				case g.num == 4 && !seen:
					seen = true
					return fields(g.bytes, func(l protoField) error {
						if l.num == 1 {
							fn = l.value
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := fields(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	shares := map[string]float64{"other": 0}
	for _, l := range profileLayers {
		shares[l] = 0
	}
	var total uint64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[layerOf(name)] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		// No samples (a run shorter than one profiler tick): nothing ran
		// anywhere we can see.
		shares["other"] = 1
		return shares, 0, nil
	}
	for l := range shares {
		shares[l] /= float64(total)
	}
	return shares, int(total), nil
}

// layerOf maps a fully qualified function name to its layer: the govisor
// internal package of the same name, "runtime" for the Go runtime (allocator,
// GC, scheduler, memmove), "other" for the rest.
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "govisor/internal/"); ok {
		for _, l := range profileLayers {
			if rest == l {
				return l
			}
		}
	}
	return "other"
}
