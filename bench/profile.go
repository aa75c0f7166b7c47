package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"
)

// CPU-profile reduction. A runtime/pprof CPU profile is a gzipped
// profile.proto message; cpuShares decodes the few fields it needs
// (samples, locations, functions, strings) and charges every sample to a
// layer:
//
//   - the innermost stack frame inside a repro/... package, so runtime
//     helpers (duffcopy, memmove, map access, mallocgc and GC assists)
//     count against the layer that called them;
//   - otherwise runtime.gc_cpu_pct when a background GC worker is on the
//     stack;
//   - otherwise other.cpu_pct (scheduler, network poller, syscalls).
//
// The shares therefore sum to 100% of the profiled CPU time.

// cpuShares returns each layer's percentage of the profile's CPU time,
// keyed by metric name (<module>.cpu_pct, runtime.gc_cpu_pct,
// other.cpu_pct; every declared layer present), and the total CPU time.
func cpuShares(profile []byte) (map[string]float64, time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}

	funcName := map[uint64]string{}
	for id, nameIdx := range p.functions {
		if nameIdx < uint64(len(p.strings)) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	ns := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		total += v
		layer := "other.cpu_pct"
		gc := false
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] { // innermost inlined frame first
				name := funcName[fn]
				if m, ok := moduleOf(name); ok {
					layer = m + ".cpu_pct"
					gc = false
					break stack
				}
				if name == "runtime.gcBgMarkWorker" {
					gc = true
				}
			}
		}
		if gc {
			layer = "runtime.gc_cpu_pct"
		}
		ns[layer] += v
	}

	shares := map[string]float64{"runtime.gc_cpu_pct": 0, "other.cpu_pct": 0}
	for _, m := range cpuModules {
		shares[m+".cpu_pct"] = 0
	}
	for layer, v := range ns {
		if _, ok := shares[layer]; !ok {
			layer = "other.cpu_pct" // a package added after this list
		}
		if total > 0 {
			shares[layer] += 100 * float64(v) / float64(total)
		}
	}
	return shares, time.Duration(total), nil
}

// moduleOf maps a function name to its layer: "repro/internal/sim.(*Engine).Step"
// → "sim", "repro.Run" → "repro", "repro/bench/cmd/ftbench.main" → "bench".
func moduleOf(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
	case strings.HasPrefix(fn, "repro/bench"):
		return "bench", true
	case strings.HasPrefix(fn, "repro."):
		return "repro", true
	}
	return "", false
}

// profileData is the part of a decoded profile.proto cpuShares uses.
type profileData struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID → function IDs, innermost first
	functions map[uint64]uint64   // function ID → name string index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch {
		case field == profSampleField && wire == 2:
			var s profSample
			err := eachField(sub, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					s.locations = appendVarints(s.locations, w, v, sub)
				case 2:
					for _, x := range appendVarints(nil, w, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case field == profLocationField && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, w int, v uint64, sub []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && w == 2: // Line{function_id = 1, line = 2}
					return eachField(sub, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case field == profFunctionField && wire == 2:
			var id, name uint64
			err := eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case field == profStringField && wire == 2:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in sub; fixed-width fields
// are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}
