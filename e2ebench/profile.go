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

// This file attributes a runtime/pprof CPU profile to the repository's
// packages with the standard library alone: it decodes the gzipped
// profile.proto message by hand, keeping only the fields attribution
// needs (sample values and stacks, locations, functions, strings).

// otherLayer collects samples whose stack holds no frame of the module
// under test: GC workers, the scheduler, idle syscalls.
const otherLayer = "other"

// modulePath is the import path of the module under test; a frame is
// charged to a layer only when its package lies inside it.
const modulePath = "sbr6"

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fValueTypeUnit      = 2
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
	wireVarint          = 0
	wireFixed64         = 1
	wireBytes           = 2
	wireFixed32         = 5
)

const (
	maxProfileBytes      = 256 << 20
	errPrefixProfileRead = "cpu profile"
)

var errProto = errors.New("malformed profile protobuf")

// cpuShares decodes a gzipped CPU profile and returns, per layer, the
// share of sampled CPU time charged to it. A sample is charged to the
// innermost frame (inlined frames included) whose package lies in the
// module under test, so time spent in the standard library — ed25519
// inside identity signing, mallocgc inside a decoder — counts toward
// the repository layer that called it. The layer is the last element of
// the package path ("sbr6/internal/wire" is "wire", the root package is
// "sbr6"). Shares sum to 1 unless the profile holds no samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", errPrefixProfileRead, err)
	}
	raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", errPrefixProfileRead, err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return p.shares()
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	valueTypes []string // "type/unit" per sample value index
	samples    []sample
	locFuncs   map[uint64][]uint64 // location id -> function ids, innermost first
	funcName   map[uint64]int64    // function id -> string table index
	strs       []string
}

// shares attributes every sample's CPU value to a layer.
func (p *profile) shares() (map[string]float64, error) {
	vi := -1
	for i, vt := range p.valueTypes {
		if vt == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("%s: no cpu/nanoseconds sample type in %v", errPrefixProfileRead, p.valueTypes)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, fmt.Errorf("%s: sample has %d values, want > %d: %w", errPrefixProfileRead, len(s.values), vi, errProto)
		}
		v := float64(s.values[vi])
		layer, err := p.layerOf(s.locs)
		if err != nil {
			return nil, err
		}
		byLayer[layer] += v
		total += v
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// layerOf walks a stack from its leaf and returns the first frame's layer
// inside the module under test.
func (p *profile) layerOf(locs []uint64) (string, error) {
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			si, ok := p.funcName[f]
			if !ok || si < 0 || si >= int64(len(p.strs)) {
				return "", fmt.Errorf("%s: location %d names unknown function %d: %w", errPrefixProfileRead, l, f, errProto)
			}
			if layer, ok := layerOfFunc(p.strs[si]); ok {
				return layer, nil
			}
		}
	}
	return otherLayer, nil
}

// layerOfFunc maps a fully qualified Go function name such as
// "sbr6/internal/core.(*Node).Deliver.func1" to its layer ("core") when
// its package lies in the module under test.
func layerOfFunc(name string) (string, bool) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may name other packages
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := name[:slash+1+dot]
	if pkg != modulePath && !strings.HasPrefix(pkg, modulePath+"/") {
		return "", false
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:], true
}

// decodeProfile parses the uncompressed profile message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var valueTypes [][2]int64
	err := eachField(b, func(num, wt int, v uint64, data []byte) error {
		switch {
		case num == fProfileSampleType && wt == wireBytes:
			var vt [2]int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				if wt == wireVarint && (num == fValueTypeType || num == fValueTypeUnit) {
					vt[num-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case num == fProfileSample && wt == wireBytes:
			var s sample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case fSampleLocationID:
					return appendUints(&s.locs, wt, v, data)
				case fSampleValue:
					var us []uint64
					if err := appendUints(&us, wt, v, data); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == fProfileLocation && wt == wireBytes:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch {
				case num == fLocationID && wt == wireVarint:
					id = v
				case num == fLocationLine && wt == wireBytes:
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == fLineFunctionID && wt == wireVarint {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case num == fProfileFunction && wt == wireBytes:
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				if wt == wireVarint {
					switch num {
					case fFunctionID:
						id = v
					case fFunctionName:
						name = int64(v)
					}
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == fProfileStringTable && wt == wireBytes:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, vt := range valueTypes {
		if vt[0] < 0 || vt[0] >= int64(len(p.strs)) || vt[1] < 0 || vt[1] >= int64(len(p.strs)) {
			return nil, fmt.Errorf("%s: sample type names unknown string: %w", errPrefixProfileRead, errProto)
		}
		p.valueTypes = append(p.valueTypes, p.strs[vt[0]]+"/"+p.strs[vt[1]])
	}
	return p, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wt int, v uint64, data []byte) error {
	switch wt {
	case wireVarint:
		*dst = append(*dst, v)
		return nil
	case wireBytes:
		for len(data) > 0 {
			u, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("%s: packed varint: %w", errPrefixProfileRead, errProto)
			}
			*dst = append(*dst, u)
			data = data[n:]
		}
		return nil
	}
	return fmt.Errorf("%s: repeated integer with wire type %d: %w", errPrefixProfileRead, wt, errProto)
}

// eachField calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, data the payload of length-delimited
// fields.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%s: field key: %w", errPrefixProfileRead, errProto)
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("%s: varint field %d: %w", errPrefixProfileRead, num, errProto)
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return fmt.Errorf("%s: fixed64 field %d: %w", errPrefixProfileRead, num, errProto)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return fmt.Errorf("%s: fixed32 field %d: %w", errPrefixProfileRead, num, errProto)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("%s: length of field %d: %w", errPrefixProfileRead, num, errProto)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("%s: wire type %d of field %d: %w", errPrefixProfileRead, wt, num, errProto)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
