package memsim

import (
	"math/rand"
	"testing"
)

// churnTranslator is a mutable Translator with the generation discipline
// vmm provides in production: every mutation bumps the counter the Mem
// lookaside validates against.
type churnTranslator struct {
	pages map[uint64]uint64 // vpn -> physical page base
	kern  bool
	gen   uint64
}

func (c *churnTranslator) Translate(va uint64) (uint64, bool) {
	base, ok := c.pages[va>>PageShift]
	if !ok {
		return 0, false
	}
	return base + va&(PageSize-1), true
}

func (c *churnTranslator) KernelAllowed() bool { return c.kern }

// TestLookasideDifferential drives random resolves through a lookaside-
// enabled Mem and a twin whose translator has no generation counter (fast
// path disabled), interleaved with remap/unmap/privilege churn, asserting
// identical outcomes and a clean VerifyLookaside after every mutation.
func TestLookasideDifferential(t *testing.T) {
	const physPages = 64
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		phys := NewPhys(physPages)
		tr := &churnTranslator{pages: map[uint64]uint64{}, kern: true}
		trRef := &churnTranslator{pages: tr.pages, kern: true}
		fast := &Mem{Phys: phys}
		fast.SetTranslator(tr, &tr.gen)
		ref := &Mem{Phys: phys}
		ref.SetTranslator(trRef, nil) // lookaside off: pure ground truth

		nPhysPages := phys.Bytes() / PageSize
		someVA := func() uint64 {
			vpn := uint64(rng.Intn(24))
			if rng.Intn(8) == 0 { // sprinkle kernel-half addresses
				vpn += DirectMapBase >> PageShift
			}
			return vpn<<PageShift + uint64(rng.Intn(PageSize))
		}
		for step := 0; step < 4000; step++ {
			switch rng.Intn(12) {
			case 0: // remap or fresh map
				vpn := uint64(rng.Intn(24))
				if rng.Intn(8) == 0 {
					vpn += DirectMapBase >> PageShift
				}
				tr.pages[vpn] = uint64(rng.Intn(int(nPhysPages))) * PageSize
				tr.gen++
			case 1: // unmap
				vpn := uint64(rng.Intn(24))
				delete(tr.pages, vpn)
				tr.gen++
			case 2: // privilege flip: mirrored, no generation cost
				on := rng.Intn(2) == 0
				tr.kern, trRef.kern = on, on
				fast.SetKernelMode(on)
			default:
				va := someVA()
				size := uint8(8)
				if rng.Intn(4) == 0 {
					size = 1
				}
				pa1, ok1 := fast.Resolve(va, size)
				pa2, ok2 := ref.Resolve(va, size)
				if ok1 != ok2 || (ok1 && pa1 != pa2) {
					t.Fatalf("seed %d step %d: Resolve(%#x,%d) diverged: fast (%#x,%v), ref (%#x,%v)",
						seed, step, va, size, pa1, ok1, pa2, ok2)
				}
			}
			if err := fast.VerifyLookaside(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestLookasideTranslatorSwap pins SetTranslator's bump-on-switch: entries
// memoized under one translator must never serve another, even when both
// share a generation counter (as two address spaces of one machine do).
func TestLookasideTranslatorSwap(t *testing.T) {
	phys := NewPhys(8)
	var sharedGen uint64
	a := &churnTranslator{pages: map[uint64]uint64{2: 0 * PageSize}, kern: true}
	b := &churnTranslator{pages: map[uint64]uint64{2: 3 * PageSize}, kern: true}
	m := &Mem{Phys: phys}
	m.SetTranslator(a, &sharedGen)
	va := uint64(2)<<PageShift + 40
	if pa, ok := m.Resolve(va, 8); !ok || pa != 40 {
		t.Fatalf("under a: got (%#x,%v)", pa, ok)
	}
	m.SetTranslator(b, &sharedGen)
	if pa, ok := m.Resolve(va, 8); !ok || pa != 3*PageSize+40 {
		t.Fatalf("under b after swap: got (%#x,%v), lookaside served a's entry", pa, ok)
	}
}

// TestLookasideReassert pins SetTranslator's re-assert path: re-asserting
// the current translator keeps a warm entry serving, a mapping mutation
// followed by a re-assert serves the new page, and the re-assert still
// refreshes the privilege mirror.
func TestLookasideReassert(t *testing.T) {
	phys := NewPhys(8)
	kpage := DirectMapBase>>PageShift + 1
	tr := &churnTranslator{pages: map[uint64]uint64{2: PageSize, kpage: 2 * PageSize}, kern: true}
	m := &Mem{Phys: phys}
	m.SetTranslator(tr, &tr.gen)
	va := uint64(2)<<PageShift + 40
	if pa, ok := m.Resolve(va, 8); !ok || pa != PageSize+40 {
		t.Fatalf("cold resolve: got (%#x,%v)", pa, ok)
	}
	m.SetTranslator(tr, &tr.gen)
	if pa := m.ResolveFast(va, 8); pa != PageSize+40 {
		t.Fatalf("re-assert dropped the warm entry: ResolveFast = %#x", pa)
	}

	tr.pages[2] = 5 * PageSize
	tr.gen++
	m.SetTranslator(tr, &tr.gen)
	if pa, ok := m.Resolve(va, 8); !ok || pa != 5*PageSize+40 {
		t.Fatalf("remap + re-assert: got (%#x,%v), lookaside served the old page", pa, ok)
	}

	kva := kpage<<PageShift + 8
	if _, ok := m.Resolve(kva, 8); !ok {
		t.Fatal("kernel-half access in kernel mode should resolve")
	}
	tr.kern = false
	m.SetTranslator(tr, &tr.gen)
	if _, ok := m.Resolve(kva, 8); ok {
		t.Fatal("re-assert kept a stale kernel-mode mirror: kernel-half hit from user mode")
	}
	if err := m.VerifyLookaside(); err != nil {
		t.Fatal(err)
	}
}

// TestLookasideStraddleAndPrivilege pins the two inline guards: an access
// spanning a page boundary misses the fast path (and faults, matching
// translateChecked), and a kernel-half hit requires kernel mode.
func TestLookasideStraddleAndPrivilege(t *testing.T) {
	phys := NewPhys(8)
	tr := &churnTranslator{pages: map[uint64]uint64{
		5:                            0,
		DirectMapBase>>PageShift + 1: PageSize,
	}, kern: true}
	m := &Mem{Phys: phys}
	m.SetTranslator(tr, &tr.gen)

	va := uint64(5) << PageShift
	if _, ok := m.Resolve(va+PageSize-8, 8); !ok {
		t.Fatal("aligned end-of-page access should resolve")
	}
	if _, ok := m.Resolve(va+PageSize-4, 8); ok {
		t.Fatal("page-straddling access resolved")
	}

	kva := DirectMapBase + PageSize + 16
	if _, ok := m.Resolve(kva, 8); !ok {
		t.Fatal("kernel-half access in kernel mode should resolve")
	}
	tr.kern = false
	m.SetKernelMode(false)
	if _, ok := m.Resolve(kva, 8); ok {
		t.Fatal("kernel-half access resolved in user mode (warm lookaside bypassed the privilege check)")
	}
}
