package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// layers are the packages under dibs/internal whose CPU share the profiled
// repeat reports, one cpu_share.<layer> metric each.
var layers = []string{
	"eventq", "packet", "topology", "queue", "core", "switching", "transport",
	"host", "workload", "metrics", "stats", "fluid", "pdes", "netsim",
	"runner", "experiments", "rng",
}

// Buckets beside the layers: the Go allocator and collector, the rest of
// the runtime (scheduler, channels, memmove, ...), and everything else (the
// harness, the standard library, unlisted packages).
const (
	bucketGC      = "runtime_gc"
	bucketRuntime = "runtime_other"
	bucketOther   = "other"
)

// gcFunc matches the runtime's allocator and garbage-collector functions by
// the words their names are built from.
var gcFunc = regexp.MustCompile(`(?i)gc|malloc|scan|mark|sweep|grey|mspan|mcache|mcentral|mheap|heapbits|wbbuf|typepointers|findobject|nextfree|scaveng|memclr`)

// layerOf buckets a fully qualified function name as pprof prints it, e.g.
// "dibs/internal/queue.(*fifo).pop" or "runtime.mallocgc".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dibs/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return bucketOther
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		if gcFunc.MatchString(rest) {
			return bucketGC
		}
		return bucketRuntime
	}
	if strings.HasPrefix(fn, "runtime/") {
		return bucketRuntime
	}
	return bucketOther
}

// cpuShares buckets leaf-function sample counts and returns each bucket's
// share of all samples, for every layer and the three extra buckets.
func cpuShares(leafSamples map[string]int64) map[string]float64 {
	shares := map[string]float64{bucketGC: 0, bucketRuntime: 0, bucketOther: 0}
	for _, l := range layers {
		shares[l] = 0
	}
	var total int64
	for fn, n := range leafSamples {
		shares[layerOf(fn)] += float64(n)
		total += n
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares
}

// leafSamples decodes a gzipped pprof profile as runtime/pprof writes it and
// returns the sample count (value 0) per leaf function. The leaf of a sample
// is the innermost inlined frame of its first location, so an inlined callee
// is charged to its own package, not its caller's.
//
// Only the handful of fields needed are read: Profile{sample=2, location=4,
// function=5, string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leafLoc uint64
		count   int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var haveLoc, haveVal bool
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1 && !haveLoc:
					s.leafLoc, haveLoc = firstVarint(v, b), true
				case num == 2 && !haveVal:
					s.count, haveVal = int64(firstVarint(v, b)), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc {
				samples = append(samples, s)
			}
		case 4: // location
			var id, fn uint64
			var haveLine bool
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine:
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
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
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "<unknown>"
		if idx := funcName[locFunc[s.leafLoc]]; idx > 0 && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or its bytes (wire type 2). Fixed-width
// fields are skipped; pprof uses none.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// firstVarint returns the first element of a repeated varint field, which
// arrives either unpacked (v) or packed (the first varint of b).
func firstVarint(v uint64, b []byte) uint64 {
	if b == nil {
		return v
	}
	first, _ := binary.Uvarint(b)
	return first
}
