package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), keeping only
// what folding by layer needs: each sample's CPU time, its stack of
// function names and files, innermost first, and its label keys.

type frame struct{ name, file string }

type sample struct {
	value  float64 // last sample value (CPU nanoseconds)
	stack  []frame
	labels []string // keys of the sample's pprof labels
}

type profile struct{ samples []sample }

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3
	labelKey         = 1

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
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

	type rawSample struct {
		locs   []uint64
		values []int64
		labels []int64 // string indices of the label keys
	}
	type function struct{ name, file int64 }
	var (
		strs      []string
		rawSamp   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					s.locs = appendVarints(s.locs, wire, v, b)
				case sampleValue:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				case sampleLabel:
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == labelKey {
							s.labels = append(s.labels, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			rawSamp = append(rawSamp, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var f function
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFilename:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, rs := range rawSamp {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{value: float64(rs.values[len(rs.values)-1])}
		for _, k := range rs.labels {
			s.labels = append(s.labels, str(k))
		}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				f := functions[fid]
				s.stack = append(s.stack, frame{str(f.name), str(f.file)})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
