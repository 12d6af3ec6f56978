package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profGroups are the buckets prof.flat_pct.<group> reports, in print order.
// Each sample of the CPU profile goes to exactly one bucket, so the shares
// sum to 100.
var profGroups = []string{
	"cpu", "cache", "memsim", "vmm", "bbcache", "schemes", "viewcache", "kernel",
	"apps", "loadgen", "harness", "runtime.gc", "runtime.malloc", "other",
}

// pkgGroup maps a simulator package to its bucket. The core's decoder and
// branch predictor count as cpu; the DSV/ISV directories as viewcache.
var pkgGroup = map[string]string{
	"cpu": "cpu", "isa": "cpu", "predict": "cpu",
	"cache": "cache", "memsim": "memsim", "vmm": "vmm", "bbcache": "bbcache",
	"schemes": "schemes", "viewcache": "viewcache", "dsv": "viewcache", "isv": "viewcache",
	"kernel": "kernel", "apps": "apps", "loadgen": "loadgen", "harness": "harness",
}

// sampleGroup buckets one stack (leaf first). Time the runtime spends
// collecting garbage or allocating is charged to the runtime, whoever
// triggered it; everything else goes to the leaf function's package.
func sampleGroup(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" ||
			f == "runtime.bgscavenge" || f == "runtime.markroot" || f == "runtime.scanobject" {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		switch f {
		case "runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice":
			return "runtime.malloc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	const prefix = "repro/internal/"
	leaf := stack[0]
	if !strings.HasPrefix(leaf, prefix) {
		return "other"
	}
	pkg, _, _ := strings.Cut(leaf[len(prefix):], ".")
	if g, ok := pkgGroup[pkg]; ok {
		return g
	}
	return "other"
}

// flatShares decodes a gzipped pprof CPU profile and returns each group's
// share of the samples in percent. With no samples every share is 0.
func flatShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if i := p.funcName[fn]; i >= 0 && int(i) < len(p.strs) {
					stack = append(stack, p.strs[i])
				}
			}
		}
		counts[sampleGroup(stack)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(profGroups))
	for _, g := range profGroups {
		out[g] = 100 * ratio(float64(counts[g]), float64(total))
	}
	return out, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function IDs, innermost inline first
	funcName map[uint64]int64    // function → string-table index
	strs     []string
}

// parseProfile reads the fields of profile.proto that flat attribution
// needs: samples (location IDs and first value), locations (their lines'
// function IDs), functions (their names) and the string table.
func parseProfile(gz []byte) (*profData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachPacked(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

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

// eachField calls f for every field of a protobuf message: varint fields
// pass their value, length-delimited ones their bytes. Fixed-width fields
// are skipped (profile.proto uses none that matter here).
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked handles a repeated varint field in either encoding: a single
// unpacked value (b == nil) or a packed run.
func eachPacked(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
