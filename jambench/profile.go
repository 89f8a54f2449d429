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

// cpuProfile is the part of a runtime/pprof CPU profile the stage-share
// numbers need: per sample, its count, its "layer" label and the function
// names on its stack (inlined frames included).
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	count int64
	layer string
	funcs []string
}

// layerCounts returns the CPU samples per layer label, and per layer the
// samples whose stack contains a function matching substr.
func (p *cpuProfile) layerCounts(substr string) (all, matching map[string]int64) {
	all, matching = map[string]int64{}, map[string]int64{}
	for _, s := range p.samples {
		all[s.layer] += s.count
		for _, f := range s.funcs {
			if strings.Contains(f, substr) {
				matching[s.layer] += s.count
				break
			}
		}
	}
	return all, matching
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. It reads only the fields it needs: Profile.sample (2),
// .location (4), .function (5) and .string_table (6); Sample.location_id
// (1), .value (2) and .label (3); Label.key (1) and .str (2); Location.id
// (1) and .line (4); Line.function_id (1); Function.id (1) and .name (2).
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		count  int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{}
		fnNames = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			var values []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						values = append(values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, l := range s.labels {
			if str(l[0]) == "layer" {
				ps.layer = str(l[1])
			}
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.funcs = append(ps.funcs, str(fnNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
