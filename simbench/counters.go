package main

import (
	"encoding/binary"
	"hash"
	"math"
	"reflect"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/viewcache"
	"repro/internal/vmm"
)

// counters is one machine's public statistics at a point in time.
type counters struct {
	CPU          cpu.Stats
	Kernel       kernel.Stats
	L1I, L1D, L2 cache.Stats
	DSV, ISV     viewcache.Stats
	TLB          vmm.TLBStats
}

// readCounters snapshots k. The TLB counters are summed over the kernel
// half and every live address space (threads share one); those of tasks
// that have exited leave the sum, which sub tolerates.
func readCounters(k *kernel.Kernel) counters {
	c := counters{
		CPU:    k.Core.Stats,
		Kernel: k.Stats,
		L1I:    k.Core.H.L1I.Stats(),
		L1D:    k.Core.H.L1D.Stats(),
		L2:     k.Core.H.L2.Stats(),
		DSV:    k.DSV.Cache().Stats(),
		ISV:    k.ISV.Cache().Stats(),
		TLB:    k.Km.KernelTLBStats(),
	}
	seen := map[*vmm.AddrSpace]bool{}
	for _, t := range k.Tasks() {
		if t.AS == nil || seen[t.AS] {
			continue
		}
		seen[t.AS] = true
		s := t.AS.TLBStats()
		c.TLB.Hits += s.Hits
		c.TLB.Misses += s.Misses
		c.TLB.Flushes += s.Flushes
		c.TLB.Evicts += s.Evicts
	}
	return c
}

// sub returns c − o field by field, clamping at zero.
func (c counters) sub(o counters) counters {
	combine(reflect.ValueOf(&c).Elem(), reflect.ValueOf(o), func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}, func(a, b float64) float64 { return a - b })
	return c
}

// add accumulates o into c field by field.
func (c *counters) add(o counters) {
	combine(reflect.ValueOf(c).Elem(), reflect.ValueOf(o),
		func(a, b uint64) uint64 { return a + b },
		func(a, b float64) float64 { return a + b })
}

// combine folds every uint64 and float64 field of b into a (both the same
// struct type, nested structs included).
func combine(a, b reflect.Value, u func(a, b uint64) uint64, f func(a, b float64) float64) {
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		switch fa.Kind() {
		case reflect.Struct:
			combine(fa, fb, u, f)
		case reflect.Uint64:
			fa.SetUint(u(fa.Uint(), fb.Uint()))
		case reflect.Float64:
			fa.SetFloat(f(fa.Float(), fb.Float()))
		}
	}
}

// hashMachine folds k's simulated state into h: the clock, the core's
// architectural and modelled-hardware counters, kernel and cache and
// view-cache counters, and the boot-state digest. Host-side counters (the
// threaded engine's, the soft TLB's) are left out on purpose: a change that
// only speeds the simulator up must leave this hash unchanged.
func hashMachine(h hash.Hash64, k *kernel.Kernel) {
	s, ks := &k.Core.Stats, &k.Stats
	vals := []uint64{
		math.Float64bits(k.Core.Now()),
		s.Insts, s.Loads, s.Stores, s.Branches, s.Mispredicts, s.TransientInsts,
		s.Fences, math.Float64bits(s.FenceDelay), s.TransientFences, s.KernelEntries, s.Faults,
		ks.Syscalls, ks.PageFaults, ks.ContextSwitch, ks.HandlerFaults, ks.HandlerRuns, ks.UnknownAccess,
	}
	for _, cs := range []cache.Stats{k.Core.H.L1I.Stats(), k.Core.H.L1D.Stats(), k.Core.H.L2.Stats()} {
		vals = append(vals, cs.Accesses, cs.Hits, cs.Fills, cs.Flushes)
	}
	for _, vs := range []viewcache.Stats{k.DSV.Cache().Stats(), k.ISV.Cache().Stats()} {
		vals = append(vals, vs.Lookups, vs.Hits, vs.Refills, vs.Drops)
	}
	vals = append(vals, k.StateDigest())
	hashWords(h, vals...)
}

func hashWords(h hash.Hash64, vals ...uint64) {
	var w [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
}
