package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A small decoder for the pprof protobuf format, enough to sum the CPU
// samples by package: profile.proto fields sample(2), location(4),
// function(5) and string_table(6). It keeps the benchmark free of a
// subprocess (`go tool pprof`) and of its output parsing.

// pbField is one decoded protobuf field: a varint value or a byte payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errProto = errors.New("benchmark: malformed profile")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbEach calls fn for every field of a message.
func pbEach(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.data, rest = rest[:n], rest[n:]
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

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// profSample is one stack of a profile, innermost frame first (inlined
// frames expanded), with the value of the profile's last sample type (CPU
// nanoseconds for a CPU profile).
type profSample struct {
	stack []string
	value int64
}

// decodeProfile reads the samples of a gzipped pprof profile.
func decodeProfile(profile []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}
	var strs []string
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := pbEach(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbInts(g, s.locs)
				case 2:
					vals, err = pbInts(g, vals)
				}
				return err
			}); err != nil {
				return err
			}
			if len(s.locs) > 0 && len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbEach(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		out[i].value = s.value
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if n := funcName[fn]; n < uint64(len(strs)) {
					out[i].stack = append(out[i].stack, strs[n])
				}
			}
		}
	}
	return out, nil
}

// profLayers are the buckets of the prof.share_* metrics, in match order.
var profLayers = []string{"flow", "sim", "pack", "sci", "mpi", "osc", "obs", "runtime", "other"}

// profLayer maps a function name to its bucket: the simulator's own
// packages by name, the Go runtime and the standard library under
// "runtime", everything else (rmem, shmem, bufpool, datatype, the
// benchmark itself) under "other".
func profLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "scimpich/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range profLayers[:7] {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "scimpich") || strings.HasPrefix(fn, "main.") {
		return "other"
	}
	return "runtime"
}

// profShares sums a CPU profile's samples into prof.share_<layer>. A sample
// belongs to the innermost frame that is not the Go runtime or the standard
// library: map iteration and allocation inside flow.(*Network).reallocate
// are flow's time, and only stacks with no frame of the program at all (the
// collector's workers, the scheduler) are "runtime". With no samples there
// is nothing to share out and the map is empty.
func profShares(profile []byte) (map[string]float64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := profLayer(fn); l != "runtime" {
				layer = l
				break
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for _, l := range profLayers {
		out["prof.share_"+l] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}
