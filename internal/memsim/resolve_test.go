package memsim

import (
	"math/rand"
	"testing"
)

// mapTranslator keeps the direct-map contract while everything else churns:
// the direct map is DirectMapPA over all of Phys, and user, vmalloc and
// per-cpu pages live in a remappable table. Kernel text is never mapped.
type mapTranslator struct {
	size  uint64            // Phys.Bytes()
	pages map[uint64]uint64 // vpn -> physical page base, outside the direct map
	kern  bool
}

func (m *mapTranslator) Translate(va uint64) (uint64, bool) {
	if pa, ok := DirectMapPA(va, m.size); ok {
		return pa, true
	}
	base, ok := m.pages[va>>PageShift]
	if !ok {
		return 0, false
	}
	return base + va&(PageSize-1), true
}

func (m *mapTranslator) KernelAllowed() bool { return m.kern }

// fuzzPhysPages sizes FuzzResolve's physical memory; a remap may target the
// frame one past its end.
const fuzzPhysPages = 16

// fuzzVA draws an address from one of the windows the fast path must tell
// apart, picked by a%8: the user half (two windows), a direct-map page, the
// direct map's last page, the page one past its end, vmalloc, per-cpu and
// kernel text. a>>3 picks the page inside the window; b the page offset,
// the top sixteen values of b reaching the last bytes of the page so that
// wide accesses straddle.
func fuzzVA(physBytes uint64, a, b byte) uint64 {
	page := uint64(a>>3) % 4
	var base uint64
	switch a % 8 {
	case 0, 1:
		base = page << PageShift
	case 2:
		base = DirectMapBase + (uint64(a>>3)%fuzzPhysPages)<<PageShift
	case 3:
		base = DirectMapBase + physBytes - PageSize
	case 4:
		base = DirectMapBase + physBytes
	case 5:
		base = VmallocBase + page<<PageShift
	case 6:
		base = PerCPUBase + page<<PageShift
	default:
		base = KernelTextBase + page<<PageShift
	}
	off := uint64(b) << 4
	if b >= 0xf0 {
		off = PageSize - (0x100 - uint64(b))
	}
	return base + off
}

// FuzzResolve checks Resolve, fast path included, against translateChecked
// over a script of three-byte ops (op, a, b) on two translators that share
// one Phys. op%8 picks the op: map or remap the page of fuzzVA outside
// the direct map to frame op>>3 (up to one past Phys), unmap it, flip the
// current translator's privilege (mirrored by SetKernelMode, as the kernel
// does), swap translators, or else probe with an access of (op>>3)%9 bytes.
func FuzzResolve(f *testing.F) {
	// A direct-map probe, leave kernel mode, probe again.
	f.Add([]byte{0x44, 0x02, 0x10, 0x02, 0x00, 0x00, 0x44, 0x02, 0x10})
	// The direct map's last page: a straddle, the last byte; one past the end.
	f.Add([]byte{0x44, 0x03, 0xfc, 0x0c, 0x03, 0xff, 0x44, 0x04, 0x00})
	// Map a user page, swap away and back, unmap it, probing after each.
	f.Add([]byte{0x18, 0, 0x20, 0x44, 0, 0x20, 0x03, 0, 0, 0x44, 0, 0x20, 0x03, 0, 0, 0x01, 0, 0x20, 0x44, 0, 0x20})
	// vmalloc mapped past Phys, a mapped per-cpu page, kernel text.
	f.Add([]byte{0x80, 0x05, 0, 0x44, 0x05, 0, 0x10, 0x06, 0, 0x44, 0x06, 0, 0x44, 0x07, 0})
	// Generated scripts: 400 ops each.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 6; n++ {
		script := make([]byte, 3*400)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		phys := NewPhys(fuzzPhysPages)
		size := phys.Bytes()
		trs := [2]*mapTranslator{
			{size: size, pages: map[uint64]uint64{}, kern: true},
			{size: size, pages: map[uint64]uint64{}},
		}
		cur := 0
		m := &Mem{Phys: phys}
		m.SetTranslator(trs[cur])
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			va := fuzzVA(size, a, b)
			switch op % 8 {
			case 0:
				if _, direct := DirectMapPA(va, size); !direct {
					trs[cur].pages[va>>PageShift] = (uint64(op>>3) % (fuzzPhysPages + 1)) << PageShift
				}
			case 1:
				delete(trs[cur].pages, va>>PageShift)
			case 2:
				trs[cur].kern = a&1 == 1
				m.SetKernelMode(trs[cur].kern)
			case 3:
				cur ^= 1
				m.SetTranslator(trs[cur])
			default:
				n := (op >> 3) % 9
				pa, ok := m.Resolve(va, n)
				wantPA, wantOK := m.translateChecked(va, uint64(n))
				if pa != wantPA || ok != wantOK {
					t.Fatalf("op %d: Resolve(%#x, %d) = (%#x, %v), translateChecked says (%#x, %v) (kernel mode %v)",
						i/3, va, n, pa, ok, wantPA, wantOK, trs[cur].kern)
				}
			}
		}
	})
}

// TestLookasideStraddleAndPrivilege pins that the fast path answers at all
// and its two inline guards: an in-page kernel-mode direct-map access
// resolves without the translator, an access spanning a page boundary
// misses the fast path (and faults, matching translateChecked), and user
// mode never reads the direct map.
func TestLookasideStraddleAndPrivilege(t *testing.T) {
	phys := NewPhys(8)
	tr := &mapTranslator{size: phys.Bytes(), pages: map[uint64]uint64{5: 0}, kern: true}
	m := &Mem{Phys: phys}
	m.SetTranslator(tr)

	va := uint64(5) << PageShift
	if _, ok := m.Resolve(va+PageSize-8, 8); !ok {
		t.Fatal("aligned end-of-page access should resolve")
	}
	if _, ok := m.Resolve(va+PageSize-4, 8); ok {
		t.Fatal("page-straddling access resolved")
	}

	kva := DirectMapBase + PageSize + 16
	if pa := m.ResolveFast(kva, 8); pa != PageSize+16 {
		t.Fatalf("kernel-mode direct-map access: ResolveFast = %#x, want %#x", pa, PageSize+16)
	}
	if pa := m.ResolveFast(kva+PageSize-20, 8); pa != ResolveMiss {
		t.Fatalf("page-straddling direct-map access answered by the fast path: %#x", pa)
	}
	tr.kern = false
	m.SetKernelMode(false)
	if _, ok := m.Resolve(kva, 8); ok {
		t.Fatal("direct-map access resolved in user mode")
	}
}
