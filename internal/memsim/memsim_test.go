package memsim

import (
	"testing"
	"testing/quick"
)

func TestPhysReadWrite(t *testing.T) {
	p := NewPhys(4)
	p.Write64(0, 0xdeadbeefcafef00d)
	if got := p.Read64(0); got != 0xdeadbeefcafef00d {
		t.Errorf("Read64 = %#x", got)
	}
	p.Write8(100, 0xab)
	if got := p.Read8(100); got != 0xab {
		t.Errorf("Read8 = %#x", got)
	}
	// Little endian: low byte of a 64-bit write is at the base address.
	p.Write64(200, 0x0102030405060708)
	if got := p.Read8(200); got != 0x08 {
		t.Errorf("low byte = %#x, want 0x08", got)
	}
}

func TestPhysContains(t *testing.T) {
	p := NewPhys(2)
	if !p.Contains(0) || !p.Contains(2*PageSize-1) {
		t.Error("valid addresses reported out of range")
	}
	if p.Contains(2 * PageSize) {
		t.Error("end address reported in range")
	}
}

func TestZeroAndCopyFrame(t *testing.T) {
	p := NewPhys(3)
	p.Write64(PageSize+8, 77)
	p.CopyFrame(2, 1)
	if got := p.Read64(2*PageSize + 8); got != 77 {
		t.Errorf("copied frame value = %d, want 77", got)
	}
	p.ZeroFrame(1)
	if got := p.Read64(PageSize + 8); got != 0 {
		t.Errorf("zeroed frame value = %d, want 0", got)
	}
	if got := p.Read64(2*PageSize + 8); got != 77 {
		t.Error("zeroing frame 1 touched frame 2")
	}
}

func TestDirectMapRoundTrip(t *testing.T) {
	f := func(pa32 uint32) bool {
		pa := uint64(pa32)
		va := DirectMapVA(pa)
		got, ok := DirectMapPA(va, 1<<33)
		return ok && got == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectMapPARejectsOutOfRange(t *testing.T) {
	if _, ok := DirectMapPA(DirectMapBase+PageSize, PageSize); ok {
		t.Error("VA beyond physical size accepted")
	}
	if _, ok := DirectMapPA(0x1000, 1<<30); ok {
		t.Error("user VA accepted as direct map")
	}
}

func TestIsUserIsKernel(t *testing.T) {
	if !IsUser(0x400000) || IsUser(DirectMapBase) {
		t.Error("IsUser wrong")
	}
	if !IsKernel(KernelTextBase) || !IsKernel(DirectMapBase) || IsKernel(0x400000) {
		t.Error("IsKernel wrong")
	}
}

func TestMemLoadStore(t *testing.T) {
	p := NewPhys(4)
	m := &Mem{Phys: p, Tr: &FixedTranslator{Size: p.Bytes(), AllowKernel: true}}
	va := DirectMapVA(3 * PageSize)
	if !m.Store(va, 8, 0x1122334455667788) {
		t.Fatal("store failed")
	}
	v, ok := m.Load(va, 8)
	if !ok || v != 0x1122334455667788 {
		t.Fatalf("load = %#x, %v", v, ok)
	}
	v, ok = m.Load(va, 1)
	if !ok || v != 0x88 {
		t.Fatalf("byte load = %#x, %v", v, ok)
	}
}

func TestMemPrivilegeCheck(t *testing.T) {
	p := NewPhys(4)
	m := &Mem{Phys: p, Tr: &FixedTranslator{Size: p.Bytes(), AllowKernel: false}}
	if _, ok := m.Load(DirectMapVA(0), 8); ok {
		t.Error("kernel VA readable with KernelAllowed=false (Meltdown!)")
	}
	if m.Store(DirectMapVA(0), 8, 1) {
		t.Error("kernel VA writable with KernelAllowed=false")
	}
}

func TestMemRejectsUnmappedAndStraddle(t *testing.T) {
	p := NewPhys(2)
	m := &Mem{Phys: p, Tr: &FixedTranslator{Size: p.Bytes(), AllowKernel: true}}
	if _, ok := m.Load(DirectMapVA(2*PageSize), 8); ok {
		t.Error("load beyond physical memory succeeded")
	}
	// A 64-bit access straddling the page boundary is rejected.
	if _, ok := m.Load(DirectMapVA(PageSize-4), 8); ok {
		t.Error("straddling load succeeded")
	}
	// One fully inside is fine.
	if _, ok := m.Load(DirectMapVA(PageSize-8), 8); !ok {
		t.Error("aligned end-of-page load failed")
	}
}

func TestPageBase(t *testing.T) {
	if PageBase(0x1234) != 0x1000 {
		t.Errorf("PageBase(0x1234) = %#x", PageBase(0x1234))
	}
	if PageBase(DirectMapBase+5) != DirectMapBase {
		t.Error("PageBase on kernel VA wrong")
	}
}

func TestLayoutStringNonEmpty(t *testing.T) {
	if LayoutString() == "" {
		t.Error("empty layout")
	}
}

func TestNewPhysPanicsOnZeroFrames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero frames")
		}
	}()
	NewPhys(0)
}

// writeEveryPath writes through every mutating accessor of p, each into a
// granule no earlier write touched: Write8, Write64, CopyIn across a granule
// boundary, CopyFrame, and ZeroFrame on a written and on a never-written
// granule. It returns the bytes p must now hold at the addresses it wrote.
func writeEveryPath(p *Phys) map[uint64]byte {
	const framesPerGranule = granSize / PageSize
	p.Write8(1, 0xff)
	p.Write64(granSize, 0x0807060504030201)
	p.CopyIn(3*granSize-4, []byte{9, 10, 11, 12, 13, 14, 15, 16})
	p.CopyFrame(4*framesPerGranule, framesPerGranule)
	p.Write8(5*granSize+5, 7)
	p.ZeroFrame(5 * framesPerGranule)
	p.ZeroFrame(6 * framesPerGranule)
	return map[uint64]byte{
		1: 0xff, granSize: 1, granSize + 7: 8, 3*granSize - 4: 9, 3*granSize + 3: 16,
		4 * granSize: 1, 4*granSize + 7: 8, 5*granSize + 5: 0,
	}
}

// TestZeroGranuleSurvivesEveryWritePath writes through every accessor, on a
// fresh store and on a clone of a frozen fresh store, and checks that the
// shared zero granule is still all-zero and a later NewPhys reads as zero.
func TestZeroGranuleSurvivesEveryWritePath(t *testing.T) {
	const frames = 128 // 512 KB: eight granules
	for _, tc := range []struct {
		name string
		p    *Phys
	}{
		{"fresh", NewPhys(frames)},
		{"clone", NewPhys(frames).Freeze().Clone()},
	} {
		want := writeEveryPath(tc.p)
		for pa, b := range want {
			if got := tc.p.Read8(pa); got != b {
				t.Errorf("%s: byte %#x = %#x, want %#x", tc.name, pa, got, b)
			}
		}
		for i, b := range zeroGranule {
			if b != 0 {
				t.Fatalf("%s: zero granule byte %#x = %#x", tc.name, i, b)
			}
		}
		tc.p.Release()
		q := NewPhys(frames)
		for pa := uint64(0); pa < q.Bytes(); pa++ {
			if b := q.Read8(pa); b != 0 {
				t.Fatalf("%s: fresh byte %#x = %#x, want 0", tc.name, pa, b)
			}
		}
	}
}

// privateGranules counts the granules of gr that are not the zero granule.
func privateGranules(gr [][]byte) int {
	n := 0
	for _, g := range gr {
		if &g[0] != &zeroGranule[0] {
			n++
		}
	}
	return n
}

func TestZeroFrameOnZeroGranulePrivatizesNothing(t *testing.T) {
	p := NewPhys(64)
	p.ZeroFrame(1)
	p.ZeroFrame(20)
	if n := privateGranules(p.gr); n != 0 {
		t.Fatalf("ZeroFrame on never-written memory privatized %d granules", n)
	}
	p.Write64(PageSize+8, 77)
	p.Write64(2*PageSize, 78)
	p.ZeroFrame(1)
	if got := p.Read64(PageSize + 8); got != 0 {
		t.Errorf("zeroed frame value = %d, want 0", got)
	}
	if got := p.Read64(2 * PageSize); got != 78 {
		t.Errorf("neighbouring frame value = %d, want 78", got)
	}
	if n := privateGranules(p.gr); n != 1 {
		t.Errorf("%d private granules, want 1", n)
	}
}

func TestFrozenFreshStoreHoldsOnePrivateGranule(t *testing.T) {
	p := NewPhys(8192)
	p.Write64(5*granSize+8, 1)
	p.Write8(5*granSize+PageSize, 2)
	s := p.Freeze()
	if n := privateGranules(s.gr); n != 1 {
		t.Fatalf("snapshot holds %d private granules, want 1", n)
	}
}

// TestDoubleReleaseNeverAliases releases a store twice and checks that the
// next two stores are distinct: a second Release must not hand the same
// memory (store or granule) to two later stores.
func TestDoubleReleaseNeverAliases(t *testing.T) {
	const frames = 32
	snap := NewPhys(frames).Freeze()
	for _, tc := range []struct {
		name string
		new  func() *Phys
	}{
		{"fresh", func() *Phys { return NewPhys(frames) }},
		{"clone", snap.Clone},
	} {
		p := tc.new()
		p.Write8(0, 0xAA)
		p.Release()
		p.Release()
		a, b := tc.new(), tc.new()
		a.Write8(8, 1)
		b.Write8(8, 2)
		if a == b || a.Read8(8) != 1 || b.Read8(8) != 2 {
			t.Fatalf("%s: stores alias after a double Release: a[8]=%d b[8]=%d", tc.name, a.Read8(8), b.Read8(8))
		}
		a.Release()
		b.Release()
	}
}

func TestReleasePoisons(t *testing.T) {
	p := NewPhys(4)
	p.Write8(0, 1)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("use of released Phys did not panic")
		}
	}()
	p.Read8(0)
}
