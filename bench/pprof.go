package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof profile (profile.proto,
// gzip-compressed) the layer fold reads: sample types, samples,
// locations with their inlined lines, functions and the string table.
type profile struct {
	sampleTypes []string // "type/unit", e.g. "cpu/nanoseconds"
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64  // one per sample type
}

// parseProfile decodes a gzip-compressed profile.proto message.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs    []string
		typeIdx [][2]uint64
		funcIdx = map[uint64]uint64{} // function id -> name string index
		p       = &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
		r       = pb{b: raw}
	)
	for !r.done() {
		num, wire, err := r.key()
		if err != nil {
			return nil, err
		}
		if wire != wireBytes {
			if err := r.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := r.bytes()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			f, err := varintFields(msg, 1, 2)
			if err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, [2]uint64{f[1], f[2]})
		case 2: // sample
			s, err := parseSample(msg)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			id, funcs, err := parseLocation(msg)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			f, err := varintFields(msg, 1, 2)
			if err != nil {
				return nil, err
			}
			funcIdx[f[1]] = f[2]
		case 6: // string_table
			strs = append(strs, string(msg))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, ti := range typeIdx {
		typ, err := str(ti[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(ti[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for id, si := range funcIdx {
		if p.funcNames[id], err = str(si); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func parseSample(msg []byte) (sample, error) {
	var s sample
	r := pb{b: msg}
	for !r.done() {
		num, wire, err := r.key()
		if err != nil {
			return s, err
		}
		switch {
		case num == 1:
			if s.locs, err = r.uvarints(wire, s.locs); err != nil {
				return s, err
			}
		case num == 2:
			var vs []uint64
			if vs, err = r.uvarints(wire, nil); err != nil {
				return s, err
			}
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		default:
			if err := r.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

func parseLocation(msg []byte) (id uint64, funcs []uint64, err error) {
	r := pb{b: msg}
	for !r.done() {
		num, wire, err := r.key()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case num == 1 && wire == wireVarint:
			if id, err = r.uvarint(); err != nil {
				return 0, nil, err
			}
		case num == 4 && wire == wireBytes:
			line, err := r.bytes()
			if err != nil {
				return 0, nil, err
			}
			f, err := varintFields(line, 1)
			if err != nil {
				return 0, nil, err
			}
			funcs = append(funcs, f[1])
		default:
			if err := r.skip(wire); err != nil {
				return 0, nil, err
			}
		}
	}
	return id, funcs, nil
}

// valueIndex returns the position of the "type/unit" sample type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pprof: no %q samples (have %v)", typ, p.sampleTypes)
}

// byFunction sums sample value i under each sample's innermost
// repository frame; samples with no repository frame (scheduler, GC
// workers, runtime timers) are summed under "".
func (p *profile) byFunction(i int) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if i >= len(s.values) {
			continue
		}
		out[p.innermostRepoFrame(s)] += s.values[i]
	}
	return out
}

func (p *profile) innermostRepoFrame(s sample) string {
	for _, loc := range s.locs {
		for _, fid := range p.locFuncs[loc] {
			if name := p.funcNames[fid]; layerOf(name) != "" {
				return name
			}
		}
	}
	return ""
}

// runtimeLayer is the bucket for samples with no repository frame.
const runtimeLayer = "go-runtime"

// byLayer folds byFunction's totals into layers.
func byLayer(funcs map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for fn, v := range funcs {
		l := layerOf(fn)
		if l == "" {
			l = runtimeLayer
		}
		out[l] += v
	}
	return out
}

// layerOf names the repository layer a function belongs to: the last
// element of its ensembleio/... package path, "ensembleio" for the
// root package, "bench" for this harness (package main), and "" for
// anything else.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "ensembleio."):
		return "ensembleio"
	case strings.HasPrefix(fn, "ensembleio/"):
		slash := strings.LastIndexByte(fn, '/')
		pkg := fn[slash+1:]
		if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
			pkg = pkg[:dot]
		}
		return pkg
	}
	return ""
}

// Protocol-buffer wire format, just enough for profile.proto.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("pprof: truncated protobuf")

type pb struct{ b []byte }

func (r *pb) done() bool { return len(r.b) == 0 }

func (r *pb) uvarint() (uint64, error) {
	var v uint64
	for i := 0; i < len(r.b) && i < 10; i++ {
		c := r.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.b = r.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (r *pb) key() (num, wire int, err error) {
	k, err := r.uvarint()
	return int(k >> 3), int(k & 7), err
}

func (r *pb) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

// uvarints reads one repeated varint field occurrence, packed or not.
func (r *pb) uvarints(wire int, dst []uint64) ([]uint64, error) {
	switch wire {
	case wireVarint:
		v, err := r.uvarint()
		return append(dst, v), err
	case wireBytes:
		packed, err := r.bytes()
		if err != nil {
			return dst, err
		}
		pr := pb{b: packed}
		for !pr.done() {
			v, err := pr.uvarint()
			if err != nil {
				return dst, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}
	return dst, fmt.Errorf("pprof: wire type %d for a varint field", wire)
}

func (r *pb) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := r.uvarint()
		return err
	case wire64:
		n = 8
	case wire32:
		n = 4
	case wireBytes:
		_, err := r.bytes()
		return err
	default:
		return fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// varintFields returns the scalar varint fields nums of a message.
func varintFields(msg []byte, nums ...int) (map[int]uint64, error) {
	out := make(map[int]uint64, len(nums))
	r := pb{b: msg}
	for !r.done() {
		num, wire, err := r.key()
		if err != nil {
			return nil, err
		}
		want := false
		for _, n := range nums {
			want = want || n == num
		}
		if !want || wire != wireVarint {
			if err := r.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		if out[num], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
