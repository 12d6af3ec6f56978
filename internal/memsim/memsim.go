// Package memsim provides the simulated physical memory and the kernel
// virtual-address layout used throughout the reproduction. It mirrors the
// parts of the Linux x86-64 memory map the paper relies on: a direct map of
// all physical frames (the reason a single kernel gadget can leak *all*
// memory, §4.1), a kernel text region, and a vmalloc region for kernel
// stacks.
//
// Physical memory is a directory of 64 KB copy-on-write granules. A fresh
// store points every granule at one shared, never-written zero granule, so
// a machine pays host memory only for the granules it actually writes.
package memsim

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Page geometry.
const (
	PageSize  = 4096
	PageShift = 12
)

// Virtual layout constants, loosely following Linux x86-64
// (Documentation/x86/x86_64/mm.rst).
const (
	// DirectMapBase is the start of the direct map of all physical memory.
	DirectMapBase uint64 = 0xffff_8880_0000_0000
	// VmallocBase is the start of the vmalloc area (kernel stacks here).
	VmallocBase uint64 = 0xffff_c900_0000_0000
	// VmallocSize bounds the vmalloc area.
	VmallocSize uint64 = 1 << 30
	// PerCPUBase is the start of the per-cpu variable area.
	PerCPUBase uint64 = 0xffff_9000_0000_0000
	// PerCPUSize bounds the per-cpu area.
	PerCPUSize uint64 = 1 << 21
	// KernelTextBase is where kernel functions are placed.
	KernelTextBase uint64 = 0xffff_ffff_8100_0000
	// ISVOffset is the fixed offset from a kernel code page to its ISV page
	// region (§6.2, Figure 6.1a). Purely a naming device in this model: the
	// isv package owns the backing bits.
	ISVOffset uint64 = 0x0000_0000_4000_0000
	// UserMax is the highest canonical userspace address + 1.
	UserMax uint64 = 0x0000_8000_0000_0000
)

// IsUser reports whether va lies in the userspace half of the address space.
func IsUser(va uint64) bool { return va < UserMax }

// IsKernel reports whether va lies in the kernel half.
func IsKernel(va uint64) bool { return va >= DirectMapBase }

// PageBase returns the base address of the page containing va.
func PageBase(va uint64) uint64 { return va &^ (PageSize - 1) }

// Granule geometry: physical memory is managed in 64 KB granules, the unit
// of copy-on-write sharing with the zero granule and with a frozen snapshot.
const (
	granShift = 16
	granSize  = 1 << granShift
	granMask  = granSize - 1
)

// zeroGranule backs every granule of a fresh store. It is never written: the
// first write to a granule copies it into private storage, so any number of
// stores, snapshots and clones may share it, on any goroutine.
var zeroGranule = make([]byte, granSize)

// Phys is the simulated physical memory: a directory of 64 KB granules. All
// simulated loads and stores ultimately land here, so a speculatively leaked
// byte is a byte some victim really stored.
//
// Every granule is either shared read-only (the zero granule, or a frozen
// snapshot's granule) or private to this store. The first write to a shared
// granule copies it into private storage (copy-on-write). A fresh store
// (NewPhys) starts with every granule shared with the zero granule, and a
// clone (PhysSnapshot.Clone) with every granule shared with its snapshot, so
// either pays host memory only for what it actually writes.
type Phys struct {
	// gr is the granule directory: gr[pa>>granShift] holds the granule's
	// bytes. Every entry is exactly granSize long, so any access that stays
	// within one simulated page stays within one granule.
	gr     [][]byte
	frames int
	size   uint64 // addressable bytes: frames * PageSize
	// shared has one bit per granule still shared read-only; the first
	// write copies the granule and clears the bit.
	shared []uint64
}

// granulePool recycles the private granules of released stores. No scrub is
// needed: privatizing a granule overwrites all of it with the shared
// granule's contents before any read.
var granulePool = sync.Pool{
	New: func() any { return make([]byte, granSize) },
}

// allShared returns a shared bitmap with every one of n granules set.
func allShared(n int) []uint64 {
	shared := make([]uint64, (n+63)/64)
	for g := 0; g < n; g++ {
		shared[g>>6] |= 1 << (uint(g) & 63)
	}
	return shared
}

// NewPhys creates a physical memory of n frames, all zero. It allocates only
// the granule directory: every granule starts as the shared zero granule.
func NewPhys(frames int) *Phys {
	if frames <= 0 {
		panic("memsim: frames must be positive")
	}
	size := uint64(frames) * PageSize
	gr := make([][]byte, (size+granMask)>>granShift)
	for g := range gr {
		gr[g] = zeroGranule
	}
	return &Phys{gr: gr, frames: frames, size: size, shared: allShared(len(gr))}
}

// Release returns the store's private granules to the granule pool and
// poisons it: any later access panics. A second Release, or a Release after
// Freeze, is a no-op, so no granule can enter the pool twice and end up
// private to two stores.
func (p *Phys) Release() {
	for g := range p.gr {
		if p.shared[g>>6]&(1<<(uint(g)&63)) == 0 {
			granulePool.Put(p.gr[g])
		}
	}
	p.gr, p.shared = nil, nil
}

// PhysSnapshot is an immutable frozen image of a physical memory's contents.
// Clones share its granules copy-on-write; concurrent clones are safe (the
// snapshot is never written).
type PhysSnapshot struct {
	gr     [][]byte
	frames int
	size   uint64
}

// Freeze converts p into an immutable snapshot, consuming it: p is poisoned
// (any later access panics, and Release is a no-op) because its private
// granules now belong to the snapshot for the snapshot's lifetime. Granules
// p still shared (the zero granule, or its parent snapshot's) stay shared.
func (p *Phys) Freeze() *PhysSnapshot {
	s := &PhysSnapshot{gr: p.gr, frames: p.frames, size: p.size}
	p.gr, p.shared = nil, nil
	return s
}

// Frames reports the snapshot's frame count.
func (s *PhysSnapshot) Frames() int { return s.frames }

// Clone creates a new Phys whose contents equal the snapshot's. All granules
// start shared; the first write to a granule copies it (64 KB) into private
// storage. Safe to call concurrently.
func (s *PhysSnapshot) Clone() *Phys {
	return &Phys{
		gr:     append([][]byte(nil), s.gr...),
		frames: s.frames,
		size:   s.size,
		shared: allShared(len(s.gr)),
	}
}

// privatize gives the store its own copy of shared granule g before a write.
func (p *Phys) privatize(g uint64) {
	buf := granulePool.Get().([]byte)
	copy(buf, p.gr[g])
	p.gr[g] = buf
	p.shared[g>>6] &^= 1 << (g & 63)
}

// mark breaks copy-on-write sharing of the granule containing pa. Every
// mutating accessor calls mark (or markRange) before touching the bytes.
func (p *Phys) mark(pa uint64) {
	g := pa >> granShift
	if p.shared[g>>6]&(1<<(g&63)) != 0 {
		p.privatize(g)
	}
}

// markRange breaks sharing of every granule [pa, pa+n) touches.
func (p *Phys) markRange(pa, n uint64) {
	if n == 0 {
		return
	}
	for g := pa >> granShift; g <= (pa+n-1)>>granShift; g++ {
		p.mark(g << granShift)
	}
}

// Frames reports the number of physical frames.
func (p *Phys) Frames() int { return p.frames }

// Bytes reports total physical bytes.
func (p *Phys) Bytes() uint64 { return p.size }

// Contains reports whether pa is a valid physical address.
func (p *Phys) Contains(pa uint64) bool { return pa < p.size }

// Read64 reads 8 bytes at pa (little endian). It panics on out-of-range
// addresses: callers must translate and validate first. (An 8-byte access
// never straddles a granule: accesses are page-confined and granules are
// page-aligned.)
func (p *Phys) Read64(pa uint64) uint64 {
	g := p.gr[pa>>granShift]
	o := pa & granMask
	return binary.LittleEndian.Uint64(g[o : o+8])
}

// Write64 writes 8 bytes at pa.
func (p *Phys) Write64(pa uint64, v uint64) {
	p.mark(pa)
	g := p.gr[pa>>granShift]
	o := pa & granMask
	binary.LittleEndian.PutUint64(g[o:o+8], v)
}

// Read8 reads one byte.
func (p *Phys) Read8(pa uint64) byte { return p.gr[pa>>granShift][pa&granMask] }

// Write8 writes one byte.
func (p *Phys) Write8(pa uint64, v byte) {
	p.mark(pa)
	p.gr[pa>>granShift][pa&granMask] = v
}

// ZeroFrame clears frame pfn, as the kernel does before handing a page to
// userspace. A frame whose granule is still the zero granule already reads
// as zero, so it is left shared.
func (p *Phys) ZeroFrame(pfn uint64) {
	off := pfn * PageSize
	if &p.gr[off>>granShift][0] == &zeroGranule[0] {
		return
	}
	p.mark(off)
	g := p.gr[off>>granShift]
	o := off & granMask
	clear(g[o : o+PageSize])
}

// CopyOut fills dst with the bytes starting at pa. Callers must have
// translated and bounds-checked first (it panics like Read64 on
// out-of-range addresses).
func (p *Phys) CopyOut(pa uint64, dst []byte) {
	for len(dst) > 0 {
		g := p.gr[pa>>granShift]
		o := pa & granMask
		n := copy(dst, g[o:])
		dst = dst[n:]
		pa += uint64(n)
	}
}

// CopyIn writes data starting at pa.
func (p *Phys) CopyIn(pa uint64, data []byte) {
	p.markRange(pa, uint64(len(data)))
	for len(data) > 0 {
		g := p.gr[pa>>granShift]
		o := pa & granMask
		n := copy(g[o:], data)
		data = data[n:]
		pa += uint64(n)
	}
}

// CopyFrame copies frame src to frame dst (fork, COW break). A 4 KB frame
// never straddles a 64 KB granule.
func (p *Phys) CopyFrame(dst, src uint64) {
	dpa, spa := dst*PageSize, src*PageSize
	p.mark(dpa)
	d := p.gr[dpa>>granShift]
	s := p.gr[spa>>granShift]
	copy(d[dpa&granMask:(dpa&granMask)+PageSize], s[spa&granMask:(spa&granMask)+PageSize])
}

// DirectMapVA returns the direct-map virtual address of physical address pa.
func DirectMapVA(pa uint64) uint64 { return DirectMapBase + pa }

// DirectMapPA returns the physical address for a direct-map VA, or ok=false
// if va is not in the direct map window for a memory of size bytes.
func DirectMapPA(va, size uint64) (pa uint64, ok bool) {
	if va < DirectMapBase {
		return 0, false
	}
	pa = va - DirectMapBase
	return pa, pa < size
}

// Translator maps virtual to physical addresses for one execution context.
// The kernel package implements this with real (simulated) page tables for
// the user half and the fixed kernel windows for the kernel half.
//
// Every Translator keeps the direct-map contract: the direct map is
// DirectMapPA over all of the Mem's Phys, so each va it places inside Phys
// translates to va - DirectMapBase, whatever else the translator maps.
// Mem.ResolveFast answers those addresses without asking.
type Translator interface {
	// Translate returns the physical address backing va, with ok=false for
	// unmapped addresses (a page fault architecturally; a squashed access
	// speculatively).
	Translate(va uint64) (pa uint64, ok bool)
	// KernelAllowed reports whether kernel-half addresses may be accessed.
	// It is false while executing user code (the user/kernel privilege
	// check; Meltdown is out of the paper's threat model, so user code
	// never reads kernel data even transiently).
	KernelAllowed() bool
}

// Mem couples a Translator with physical memory to give the byte-addressed
// view the CPU core loads and stores through.
type Mem struct {
	Phys *Phys
	Tr   Translator

	// kernOK mirrors Tr.KernelAllowed for ResolveFast's inline privilege
	// check: a stale true would let user code read the direct map. A Mem
	// built with Tr but no SetTranslator starts false, which only sends its
	// direct-map accesses down the slow path.
	kernOK bool
}

// ResolveMiss is ResolveFast's "consult the slow path" sentinel. It can
// never collide with a real resolution: physical addresses are bounded by
// Phys.Contains.
const ResolveMiss = ^uint64(0)

// ResolveFast is the inlinable direct-map fast path (DESIGN.md §12): a
// kernel-mode, in-page access to the direct map resolves to va -
// DirectMapBase, which the Translator contract makes translateChecked's
// answer too. Anything else returns ResolveMiss, meaning "call Resolve",
// not "fault": only the slow path can fault.
func (m *Mem) ResolveFast(va uint64, size uint8) uint64 {
	pa := va - DirectMapBase
	if va >= DirectMapBase && m.kernOK && m.Phys.Contains(pa) && PageBase(va) == PageBase(va+uint64(size)-1) {
		return pa
	}
	return ResolveMiss
}

// Resolve translates va for an access of the given size, applying the
// privilege check and rejecting page-straddling or unmapped accesses. The
// CPU core uses the returned physical address to index the (physically
// indexed) caches.
func (m *Mem) Resolve(va uint64, size uint8) (pa uint64, ok bool) {
	if pa = m.ResolveFast(va, size); pa != ResolveMiss {
		return pa, true
	}
	return m.translateChecked(va, uint64(size))
}

// SetTranslator switches the active translator and refreshes the privilege
// mirror. Nothing is memoized per translator, so a swap invalidates nothing.
func (m *Mem) SetTranslator(tr Translator) {
	m.Tr = tr
	m.kernOK = tr.KernelAllowed()
}

// SetKernelMode mirrors the translator's KernelAllowed state for the
// inline privilege check. The kernel calls it at every simulated kernel
// entry and exit, beside the AddrSpace.InKernel flip it mirrors.
func (m *Mem) SetKernelMode(on bool) { m.kernOK = on }

// Load reads size (1 or 8) bytes at va. ok=false means the access faults;
// the core squashes (transient) or raises (architectural).
func (m *Mem) Load(va uint64, size uint8) (uint64, bool) {
	pa, ok := m.translateChecked(va, uint64(size))
	if !ok {
		return 0, false
	}
	if size == 1 {
		return uint64(m.Phys.Read8(pa)), true
	}
	return m.Phys.Read64(pa), true
}

// Store writes size (1 or 8) bytes at va.
func (m *Mem) Store(va uint64, size uint8, v uint64) bool {
	pa, ok := m.translateChecked(va, uint64(size))
	if !ok {
		return false
	}
	m.StorePA(pa, size, v)
	return true
}

// LoadPA reads size (1 or 8) bytes at an already-resolved physical address.
// The CPU core resolves each access once (Resolve) and then uses the PA for
// both the cache access and the data read — re-translating the VA here was
// pure host-side waste.
func (m *Mem) LoadPA(pa uint64, size uint8) uint64 {
	if size == 1 {
		return uint64(m.Phys.Read8(pa))
	}
	return m.Phys.Read64(pa)
}

// StorePA writes size (1 or 8) bytes at an already-resolved physical address.
func (m *Mem) StorePA(pa uint64, size uint8, v uint64) {
	if size == 1 {
		m.Phys.Write8(pa, byte(v))
	} else {
		m.Phys.Write64(pa, v)
	}
}

func (m *Mem) translateChecked(va, size uint64) (uint64, bool) {
	if IsKernel(va) && !m.Tr.KernelAllowed() {
		return 0, false
	}
	// Accesses must not straddle a page boundary (the synthetic kernel is
	// built so they never do).
	if PageBase(va) != PageBase(va+size-1) {
		return 0, false
	}
	pa, ok := m.Tr.Translate(va)
	if !ok || !m.Phys.Contains(pa+size-1) {
		return 0, false
	}
	return pa, ok
}

// FixedTranslator is a Translator for bare kernel-only execution: direct map
// and nothing else. Tests and the attack harness use it when no process
// context exists.
type FixedTranslator struct {
	Size        uint64 // physical size in bytes
	AllowKernel bool
}

// Translate implements Translator.
func (f *FixedTranslator) Translate(va uint64) (uint64, bool) {
	return DirectMapPA(va, f.Size)
}

// KernelAllowed implements Translator.
func (f *FixedTranslator) KernelAllowed() bool { return f.AllowKernel }

// String renders the layout; used by the Table 7.1 dump.
func LayoutString() string {
	return fmt.Sprintf(
		"direct map @ %#x\nvmalloc    @ %#x (+%#x)\nper-cpu    @ %#x (+%#x)\nkernel txt @ %#x\nISV offset   %#x\nuser max     %#x\n",
		DirectMapBase, VmallocBase, VmallocSize, PerCPUBase, PerCPUSize,
		KernelTextBase, ISVOffset, UserMax)
}
