package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// l0Pair builds two identical worlds running the same program, one with the
// L0 micro-caches enabled (the default) and one with them disabled — the
// differential oracle for the fast path's "state no-op" claim: every
// observable (registers, cycle counts, full hierarchy digests, stats) must
// be identical however the churn lands.
func l0Pair(t *testing.T, build func(w *world)) (on, off *world) {
	t.Helper()
	on, off = newWorld(), newWorld()
	build(on)
	build(off)
	off.core.SetL0Enabled(false)
	return on, off
}

// randProgram emits a deterministic pseudo-random mix of loads, stores, ALU
// ops and a data-dependent branch loop over a window of direct-mapped data.
// The loop re-runs the same lines (exercising the L0 hit path), the stride
// walks several cache sets, and the branch mispredicts on irregular data
// (exercising transient windows, which must bypass the L0).
func randProgram(rng *rand.Rand, dataVA uint64, lines int) []isa.Inst {
	a := isa.NewAsm()
	a.MovImm(isa.R2, int64(dataVA))
	a.MovImm(isa.R3, 0)            // loop counter
	a.MovImm(isa.R4, int64(lines)) // trip count
	a.MovImm(isa.R7, 0)            // accumulator
	a.Label("loop")
	a.Mov(isa.R5, isa.R3)
	a.ShlImm(isa.R5, isa.R5, 6) // line stride
	a.Add(isa.R5, isa.R5, isa.R2)
	for i := 0; i < 4; i++ {
		switch rng.Intn(3) {
		case 0:
			a.Load(isa.R6, isa.R5, int64(rng.Intn(7)*8))
			a.Add(isa.R7, isa.R7, isa.R6)
		case 1:
			a.Store(isa.R5, int64(rng.Intn(7)*8), isa.R7)
		case 2:
			a.AddImm(isa.R7, isa.R7, int64(rng.Intn(100)))
		}
	}
	// Data-dependent branch: irregular values in the window make the
	// predictor wrong often enough to open transient windows.
	a.AndImm(isa.R6, isa.R7, 1)
	a.Branch(isa.CNE, isa.R6, isa.R0, "odd")
	a.AddImm(isa.R7, isa.R7, 3)
	a.Label("odd")
	a.AddImm(isa.R3, isa.R3, 1)
	a.Branch(isa.CLT, isa.R3, isa.R4, "loop")
	a.Mov(isa.R1, isa.R7)
	a.Halt()
	return a.MustBuild()
}

// requireSameState asserts every observable of the two worlds matches.
func requireSameState(t *testing.T, on, off *world, when string) {
	t.Helper()
	if a, b := on.h.StateDigest(), off.h.StateDigest(); a != b {
		t.Fatalf("%s: hierarchy digest diverged: L0-on %#x, L0-off %#x", when, a, b)
	}
	if on.core.Regs != off.core.Regs {
		t.Fatalf("%s: register files diverged:\non:  %v\noff: %v", when, on.core.Regs, off.core.Regs)
	}
	if a, b := on.core.Stats, off.core.Stats; a != b {
		t.Fatalf("%s: stats diverged:\non:  %+v\noff: %+v", when, a, b)
	}
}

// TestL0DifferentialRandom drives randomized programs through an L0-enabled
// and an L0-disabled core while churning the hierarchy between quanta with
// flushes, invalidations (the KPTI-style whole-cache drop), and external
// fills, asserting bit-identical state and timing throughout.
func TestL0DifferentialRandom(t *testing.T) {
	const dataPA = uint64(0x4000)
	for seed := int64(1); seed <= 8; seed++ {
		on, off := l0Pair(t, func(w *world) {
			prog := randProgram(rand.New(rand.NewSource(seed)), dm(dataPA), 24)
			w.code.place(entry, prog)
			// Fresh rng per world so both see identical data.
			r := rand.New(rand.NewSource(seed ^ 0xda7a))
			for i := uint64(0); i < 64; i++ {
				w.phys.Write64(dataPA+i*8, r.Uint64()>>32)
			}
		})
		rng := rand.New(rand.NewSource(seed + 100))
		for round := 0; round < 6; round++ {
			ra := on.core.Run(entry, 4000)
			rb := off.core.Run(entry, 4000)
			if ra != rb {
				t.Fatalf("seed %d round %d: run results diverged:\non:  %+v\noff: %+v", seed, round, ra, rb)
			}
			requireSameState(t, on, off, "after run")
			// Hierarchy churn applied identically to both: targeted flushes,
			// the occasional full invalidation, and external fills that land
			// in the same sets the program uses.
			for i := 0; i < 8; i++ {
				pa := dataPA + uint64(rng.Intn(24))*64
				switch rng.Intn(4) {
				case 0:
					on.h.FlushData(pa)
					off.h.FlushData(pa)
				case 1:
					on.h.AccessData(pa+0x10000, true)
					off.h.AccessData(pa+0x10000, true)
				case 2:
					on.h.AccessInst(pa)
					off.h.AccessInst(pa)
				case 3:
					if rng.Intn(4) == 0 {
						on.h.L1D.InvalidateAll()
						off.h.L1D.InvalidateAll()
					}
				}
			}
			if rng.Intn(3) == 0 { // KPTI-style: drop both L1s wholesale
				on.h.L1I.InvalidateAll()
				off.h.L1I.InvalidateAll()
				on.h.L1D.InvalidateAll()
				off.h.L1D.InvalidateAll()
			}
			requireSameState(t, on, off, "after churn")
		}
	}
}

// TestL0DisableClears pins SetL0Enabled(false)'s contract: after disabling,
// the fast path never fires (committed accesses still work, through the
// full hierarchy) and re-enabling starts cold rather than serving entries
// from before the disabled window.
func TestL0DisableClears(t *testing.T) {
	w := newWorld()
	pa := uint64(0x4000)
	w.core.l0DataSlow(pa) // fill L1D and install the L0 entry
	if lat := w.core.l0DataFast(pa); lat != w.h.L1Lat {
		t.Fatalf("expected a warm L0 hit, got %d", lat)
	}
	w.core.SetL0Enabled(false)
	if lat := w.core.l0DataFast(pa); lat != -1 {
		t.Fatalf("disabled L0 still hit: %d", lat)
	}
	w.core.l0DataSlow(pa) // must not install while disabled
	w.core.SetL0Enabled(true)
	if lat := w.core.l0DataFast(pa); lat != -1 {
		t.Fatalf("re-enabled L0 served a stale entry: %d", lat)
	}
}

// FuzzL0Differential is the fuzz form of the differential (registered in
// `make fuzzseed`): the input bytes choose the program seed and the churn
// schedule, and any state or timing divergence between L0-on and L0-off
// panics the property.
func FuzzL0Differential(f *testing.F) {
	f.Add(int64(42), []byte{0, 1, 2, 3})
	f.Add(int64(7), []byte{0xff, 0x80, 0x41})
	f.Fuzz(func(t *testing.T, seed int64, churn []byte) {
		if len(churn) > 64 {
			churn = churn[:64]
		}
		const dataPA = uint64(0x4000)
		on, off := l0Pair(t, func(w *world) {
			prog := randProgram(rand.New(rand.NewSource(seed)), dm(dataPA), 16)
			w.code.place(entry, prog)
			r := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := uint64(0); i < 64; i++ {
				w.phys.Write64(dataPA+i*8, r.Uint64()>>32)
			}
		})
		ra := on.core.Run(entry, 3000)
		rb := off.core.Run(entry, 3000)
		if ra != rb {
			t.Fatalf("run results diverged:\non:  %+v\noff: %+v", ra, rb)
		}
		for _, b := range churn {
			pa := dataPA + uint64(b%16)*64
			switch b % 3 {
			case 0:
				on.h.FlushData(pa)
				off.h.FlushData(pa)
			case 1:
				on.h.AccessData(pa, true)
				off.h.AccessData(pa, true)
			case 2:
				on.h.L1D.InvalidateAll()
				off.h.L1D.InvalidateAll()
			}
		}
		ra = on.core.Run(entry, 3000)
		rb = off.core.Run(entry, 3000)
		if ra != rb {
			t.Fatalf("post-churn results diverged:\non:  %+v\noff: %+v", ra, rb)
		}
		requireSameState(t, on, off, "after fuzz churn")
	})
}

// TestL0TransientBypass pins the security-relevant confinement property at
// runtime (the confine analyzer pins it statically): wrong-path loads take
// the full hierarchy, so a transient window never installs or refreshes an
// L0 entry — the fast path cannot become a new transient side channel.
func TestL0TransientBypass(t *testing.T) {
	w := newWorld()
	secretPA := uint64(0x7000)
	w.core.SetL0Enabled(true)
	saved := w.core.l0d
	// A transient load through the blessed accessor must leave the L0
	// contents untouched even though it fills the L1.
	w.core.specLoad(entry, memsim.DirectMapVA(secretPA), 8, false)
	if w.core.l0d != saved {
		t.Fatal("transient load mutated the L0 micro-cache")
	}
	if !w.h.L1D.Lookup(secretPA) {
		t.Fatal("transient load did not fill L1 (wrong-path fill is the covert channel under AllowAll)")
	}
}
