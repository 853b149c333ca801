package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto format runtime/pprof
// writes, enough to walk each sample's stack by function name. Only the
// fields used here are decoded: Profile.sample (2), .location (4),
// .function (5), .string_table (6); Sample.location_id (1), .value (2);
// Location.id (1), .line (4); Line.function_id (1); Function.id (1),
// .name (2).

// profSample is one stack sample: function names leaf first (inlined
// frames expanded), and the sample's values in sample-type order.
type profSample struct {
	frames []string
	values []int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(data []byte) ([]profSample, error) {
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
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]int64{}    // function id → name string index
		strtab  []string
	)
	err = pbFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, wt, v, b)
				case 2:
					for _, x := range pbAppendUints(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				name := "?"
				if i := funcs[fn]; i >= 0 && i < int64(len(strtab)) {
					name = strtab[i]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields calls fn for every field of one protobuf message: varint
// fields pass their value in v, length-delimited ones their bytes in b.
func pbFields(msg []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errProto
		}
		msg = msg[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = pbVarint(msg)
			if n == 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field occurrence, packed
// (wire type 2) or not.
func pbAppendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a symbolized function name,
// e.g. "prism/internal/sim" for "prism/internal/sim.(*Engine).Run".
func funcPackage(fn string) string {
	s := fn
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i] // generic instantiations may carry paths in brackets
	}
	slash := strings.LastIndexByte(s, '/')
	if dot := strings.IndexByte(s[slash+1:], '.'); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerPackages maps the repository's packages to their cpu.* layer.
var layerPackages = map[string]string{
	"prism/internal/sim":       "sim",
	"prism/internal/fabric":    "fabric",
	"prism/internal/rdma":      "rdma",
	"prism/internal/model":     "model",
	"prism/internal/prism":     "prism",
	"prism/internal/memory":    "memory",
	"prism/internal/alloc":     "alloc",
	"prism/internal/wire":      "wire",
	"prism/internal/kv":        "kv",
	"prism/internal/abd":       "abd",
	"prism/internal/tx":        "tx",
	"prism/internal/bench":     "bench",
	"prism/internal/stats":     "stats",
	"prism/internal/workload":  "workload",
	"prism/internal/transport": "transport",
	"main":                     "harness",
}

// Runtime frames that mark a sample as kernel I/O, garbage collection,
// or goroutine scheduling rather than work of the layer that called
// into the runtime.
var (
	syscallPackages = map[string]bool{
		"syscall":                  true,
		"internal/runtime/syscall": true,
		"runtime/internal/syscall": true,
		"internal/syscall/unix":    true,
	}
	gcFuncs = map[string]bool{
		"runtime.gcBgMarkWorker":    true,
		"runtime.gcAssistAlloc":     true,
		"runtime.bgsweep":           true,
		"runtime.bgscavenge":        true,
		"runtime.gcStart":           true,
		"runtime.gcMarkDone":        true,
		"runtime.gcMarkTermination": true,
		"runtime.markroot":          true,
		"runtime.gcDrain":           true,
		"runtime.sweepone":          true,
		"runtime.deductSweepCredit": true,
	}
	schedFuncs = map[string]bool{
		"runtime.mcall":        true,
		"runtime.schedule":     true,
		"runtime.findRunnable": true,
		"runtime.park_m":       true,
		"runtime.goschedImpl":  true,
		"runtime.gopark":       true,
		"runtime.goready":      true,
		"runtime.ready":        true,
		"runtime.wakep":        true,
		"runtime.futex":        true,
		"runtime.netpoll":      true,
		"runtime.notesleep":    true,
		"runtime.notewakeup":   true,
		"runtime.usleep":       true,
		"runtime.osyield":      true,
		"runtime.sysmon":       true,
		"runtime.exitsyscall":  true,
		"runtime.entersyscall": true,
	}
)

// cpuLayer attributes one CPU sample to a layer:
//   - syscall: a frame in the syscall packages (kernel time of socket
//     reads and writes, whatever layer issued them);
//   - gc: a garbage-collector worker, assist or sweep frame;
//   - sched: the leaf is a scheduler, park/ready or futex frame;
//   - otherwise the innermost frame in one of the repository's packages
//     (runtime helpers such as memmove or mallocgc are charged to the
//     layer that called them), or "other" when there is none.
func cpuLayer(frames []string) string {
	for _, fn := range frames {
		if syscallPackages[funcPackage(fn)] {
			return "syscall"
		}
	}
	for _, fn := range frames {
		if gcFuncs[fn] {
			return "gc"
		}
	}
	if len(frames) > 0 && schedFuncs[frames[0]] {
		return "sched"
	}
	for _, fn := range frames {
		if schedFuncs[fn] && funcPackage(frames[0]) == "runtime" {
			return "sched"
		}
		if layer, ok := layerPackages[funcPackage(fn)]; ok {
			return layer
		}
	}
	return "other"
}

// cpuShares attributes a CPU profile's sampled time by layer. It
// returns each layer's share of the sampled nanoseconds and the sample
// count (the shares' base).
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	ns := map[string]int64{}
	var total, count int64
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		layer := cpuLayer(s.frames)
		ns[layer] += s.values[1]
		total += s.values[1]
		count += s.values[0]
	}
	shares := make(map[string]float64, len(ns))
	for layer, v := range ns {
		if total > 0 {
			shares[layer] = float64(v) / float64(total)
		}
	}
	return shares, count, nil
}

// guardReleasers are the functions that release the memory.Space guard
// (the live server's shared-state mutex): the end of a wakeup batch's
// amortized verb span, buffer recycling, quiesce registration,
// temp-region carving, and bulk loading.
var guardReleasers = map[string]bool{
	"prism/internal/transport.(*srvSock).endVerbs":     true,
	"prism/internal/transport.(*Server).RecycleBuffer": true,
	"prism/internal/transport.(*Server).Quiesce":       true,
	"prism/internal/transport.(*Server).allocConnTemp": true,
	"prism/internal/kv.(*Server).Load":                 true,
}

// mutexDelays sums a mutex profile's contention delay (ns): on the
// space guard, and in total. The runtime records a contended sync.Mutex
// at its Unlock, so the first frame outside the runtime and sync
// packages names the critical section the waiters queued behind.
func mutexDelays(prof []byte) (guard, total int64, err error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		total += s.values[1]
		for _, fn := range s.frames {
			switch funcPackage(fn) {
			case "runtime", "sync", "internal/sync":
				continue
			}
			if guardReleasers[fn] {
				guard += s.values[1]
			}
			break
		}
	}
	return guard, total, nil
}
