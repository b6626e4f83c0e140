package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file decodes the parts of a runtime/pprof CPU profile (gzipped
// profile.proto) that host-share attribution needs: each sample's count
// and stack of function names, leaf first.

var errTruncated = errors.New("pprof: truncated message")

// protoField is one field of a protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value (wire type 0)
	b    []byte // payload (wire type 2)
}

// protoFields splits a protobuf message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var fs []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// cpuSample is one profile sample: how many times the stack was seen
// and its function names, innermost first (inlined frames included).
type cpuSample struct {
	count int64
	stack []string
}

// parseCPUProfile decodes a gzipped CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.b))
		case 5: // function
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 4: // location
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line: function_id is field 1
					lf, err := protoFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // sample
			fs, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.vals = append(s.vals, vs...)
				}
			}
			raws = append(raws, s)
		}
	}
	out := make([]cpuSample, 0, len(raws))
	for _, s := range raws {
		if len(s.vals) == 0 {
			return nil, errors.New("pprof: sample without values")
		}
		cs := cpuSample{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: bad function %d", fn)
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const modulePrefix = "nova/internal/"

// layerOf names the layer a sample is charged to: the innermost frame
// in a nova/internal package, with the hw TLB split out of hw. Samples
// with no such frame are the Go runtime's own work (GC workers, the
// scheduler) or the benchmark's ("bench").
func layerOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg, sym, _ := strings.Cut(rest, ".")
			if pkg == "hw" && (strings.Contains(sym, "TLB") || sym == "clearMap") {
				return "hw.tlb"
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// cpuProfile collects the CPU-profile samples of the repetitions of a
// traced run. It is stopped between repetitions, so the collections the
// benchmark forces there, including the work of the background mark
// workers they wake, are charged to no layer. Its methods do nothing on
// a nil cpuProfile.
type cpuProfile struct {
	buf     bytes.Buffer
	on      bool
	samples []cpuSample
	err     error // the first failure to start or decode a profile
}

func (p *cpuProfile) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
	p.on = p.err == nil
}

func (p *cpuProfile) stop() {
	if p == nil || !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	s, err := parseCPUProfile(p.buf.Bytes())
	p.samples, p.err = append(p.samples, s...), err
}

// hostShares charges each sample to its layer and returns every layer's
// share of all samples.
func hostShares(samples []cpuSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for l, c := range counts {
		shares[l] = float64(c) / float64(total)
	}
	return shares, total
}
