package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// addProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and adds each sample's count to the layer of its innermost
// repository frame (see layerOf). Under this rule math.Exp called from
// PELT counts as pelt. Samples whose only repository frames are the
// benchmark's own count as perfbench; samples with none count as go.
//
// Only the profile.proto fields the bucketing needs are read: samples
// (location ids, values), locations (id, lines), functions (id, name)
// and the string table.
func addProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbUints(v, b, &s.locs)
				case 2:
					return pbUints(v, b, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		layer := "go"
	frames:
		for _, l := range s.locs {
			for _, f := range locs[l] {
				idx := funcs[f]
				if idx >= uint64(len(strs)) {
					return fmt.Errorf("function name index %d out of range", idx)
				}
				switch ly := layerOf(strs[idx]); ly {
				case "":
				case "perfbench":
					// The benchmark's own frames are pass-through wrappers
					// (byte counters, recorder probes): charge the repository
					// frame that called them, if any.
					layer = ly
				default:
					layer = ly
					break frames
				}
			}
		}
		into[layer] += s.n
	}
	return nil
}

// layerOf maps a function name to its layer: the repository package it
// belongs to, "perfbench" for this benchmark's own code, or "" for code
// outside the repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		if strings.HasPrefix(fn, "repro/") {
			return "other"
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range cpuShareLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// pbFields walks the fields of one protobuf message, calling fn with
// each field's number and its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// pbUints appends a repeated varint field, packed (data) or not (v).
func pbUints(v uint64, data []byte, out *[]uint64) error {
	if data == nil {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning it and its length (0 when b is
// truncated or the varint is too long).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
