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

// modules are the simulator's layers a CPU sample can be charged to, in
// report order. A sample goes to the module of its innermost frame that
// lies in one of them, so standard-library and runtime frames (map
// lookups, math, allocation, GC assists) count against the module that
// called them. Samples with no module frame at all — background GC,
// the scheduler, the benchmark's own code — go to "runtime".
var modules = []string{
	"sim", "netsim", "tcp", "aqm", "workload", "topo", "flowgen",
	"fluid", "hybrid", "metrics", "stats", "core", "runtime",
}

// moduleOf maps a function name to its module, or "" when the function
// lies outside every module.
func moduleOf(fn string) string {
	const prefix = "dtdctcp/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	name := rest[:end]
	for _, m := range modules[:len(modules)-1] {
		if m == name {
			return m
		}
	}
	return ""
}

// chargeProfile decodes one gzipped pprof CPU profile and returns the
// CPU time charged to each module, the total, and the part of the total
// spent in the garbage collector (background marking, assists, sweeping).
func chargeProfile(gz []byte) (charged map[string]float64, total, gc float64, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, 0, err
	}
	charged = make(map[string]float64, len(modules))
	for _, s := range p.samples {
		owner, inGC := "", false
		for _, loc := range s.locations {
			for _, fn := range p.locationFuncs[loc] {
				name := p.funcNames[fn]
				if owner == "" {
					owner = moduleOf(name)
				}
				inGC = inGC || gcFuncs[name]
			}
		}
		if owner == "" {
			owner = "runtime"
		}
		charged[owner] += s.value
		total += s.value
		if inGC {
			gc += s.value
		}
	}
	return charged, total, gc, nil
}

// gcFuncs are the runtime entry points of garbage-collection work; a
// sample with one of them on its stack is GC time.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []profSample
	// locationFuncs lists each location's function ids, innermost
	// (inlined callee) first.
	locationFuncs map[uint64][]uint64
	funcNames     map[uint64]string
}

type profSample struct {
	locations []uint64 // leaf first
	value     float64  // the last sample value: CPU nanoseconds
}

// parseProfile decodes the profile.proto fields selfFractions uses:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locationFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	funcNameIdx := map[uint64]uint64{}
	var strs []string
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, v, b)
				case 2:
					return appendPacked(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locationFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which encoders write
// either one value per field (b == nil) or packed into one byte string.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
