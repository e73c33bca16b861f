package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of pprof profiles. Each sample goes to the
// innermost repro/internal/<L> frame on its stack, so time and bytes
// spent in the standard library on a layer's behalf (pipes, malloc,
// maps) count for that layer. Samples with no repository frame go to
// runtime.gc when a garbage-collector frame is on the stack and to
// runtime.other otherwise.

// layers are the repository's modules plus the two runtime buckets.
var layers = []string{
	"analyze", "asm", "benchlab", "cfg", "core", "eampu", "faultinject",
	"firmware", "fleet", "hcrypto", "isa", "loader", "machine", "remote",
	"rtos", "sha1", "sverify", "telf", "trace", "trusted",
	"runtime.gc", "runtime.other",
}

const repoPrefix = "repro/internal/"

// gcFrames are function-name prefixes of the Go runtime's collector.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMark", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
}

// layerTotals sums one sample value (by sample-type name, e.g. "cpu" or
// "alloc_space") of a gzipped pprof profile per layer.
func layerTotals(data []byte, valueType string) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples", valueType)
	}
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[p.layerOf(s.locations, known)] += s.values[vi]
		}
	}
	return out, nil
}

// layerOf walks a stack from the leaf and names its layer.
func (p *profile) layerOf(stack []uint64, known map[string]bool) string {
	gc := false
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			name := p.str(p.functions[fn])
			if rest, ok := strings.CutPrefix(name, repoPrefix); ok {
				if l, _, _ := strings.Cut(rest, "."); known[l] {
					return l
				}
			}
			for _, g := range gcFrames {
				if strings.HasPrefix(name, g) {
					gc = true
				}
			}
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "runtime.other"
}

// profile is the part of a pprof profile.proto message layer
// attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(num int, f field) error {
		switch num {
		case profSampleType:
			return eachField(f.bytes, func(num int, f field) error {
				if num == valueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(f.varint))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case sampleLocation:
					return f.appendVarints(func(v uint64) { s.locations = append(s.locations, v) })
				case sampleValue:
					return f.appendVarints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case locationID:
					id = f.varint
				case locationLine:
					return eachField(f.bytes, func(num int, f field) error {
						if num == lineFunction {
							fns = append(fns, f.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(f.bytes, func(num int, f field) error {
				switch num {
				case functionID:
					id = f.varint
				case functionName:
					name = int64(f.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// field is one decoded protobuf field: a varint, or the payload of a
// length-delimited field.
type field struct {
	wire   int
	varint uint64
	bytes  []byte
}

// appendVarints yields a repeated scalar, packed or not.
func (f field) appendVarints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message.
func eachField(b []byte, fn func(num int, f field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		f := field{wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = binary.Uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
