// Package vmm implements virtual memory for simulated processes: real
// 4-level page tables stored in simulated physical frames, VMA tracking for
// mmap/brk regions, and the shared kernel mappings (direct map, vmalloc area
// for kernel stacks, per-cpu area).
//
// Page-table pages are themselves allocated from the buddy allocator on
// behalf of the owning context, so they participate in DSV ownership like
// any other kernel allocation (§6.1).
package vmm

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/memsim"
	"repro/internal/sec"
)

// Page-table entry bits.
const (
	pteP = 1 << 0 // present
	// PFN lives in bits 12+.
)

const ptesPerPage = memsim.PageSize / 8

// Kmaps holds the kernel-half mappings shared by all address spaces.
type Kmaps struct {
	// PhysBytes sizes the direct map. It must be the machine's
	// Phys.Bytes(): memsim.Translator's direct-map contract.
	PhysBytes uint64
	vmalloc   map[uint64]uint64 // page VA -> pfn
	perCPU    map[uint64]uint64
	vmCursor  uint64

	// tlb memoizes vmalloc and per-cpu translations so the per-access map
	// probes leave the hot path; Vmalloc/Vfree/MapPerCPU keep it coherent.
	tlb tlb
}

// NewKmaps creates the shared kernel mappings for a physical memory of the
// given size.
func NewKmaps(physBytes uint64) *Kmaps {
	return &Kmaps{
		PhysBytes: physBytes,
		vmalloc:   make(map[uint64]uint64),
		perCPU:    make(map[uint64]uint64),
		vmCursor:  memsim.VmallocBase,
	}
}

// Clone deep-copies the kernel mappings. The host-side translation cache
// starts cold — it is pure memoization with no simulated effect, so a cold
// cache only costs a few map probes before refilling. The receiver is not
// mutated, so concurrent clones of an immutable template are safe.
func (k *Kmaps) Clone() *Kmaps {
	c := &Kmaps{
		PhysBytes: k.PhysBytes,
		vmalloc:   make(map[uint64]uint64, len(k.vmalloc)),
		perCPU:    make(map[uint64]uint64, len(k.perCPU)),
		vmCursor:  k.vmCursor,
	}
	for va, pfn := range k.vmalloc {
		c.vmalloc[va] = pfn
	}
	for va, pfn := range k.perCPU {
		c.perCPU[va] = pfn
	}
	return c
}

// Vmalloc maps n fresh pages (allocated by the caller) into the vmalloc
// area, returning the base VA. Guard gaps of one page separate allocations,
// as in Linux.
func (k *Kmaps) Vmalloc(pfns []uint64) uint64 {
	base := k.vmCursor
	for i, pfn := range pfns {
		va := base + uint64(i)*memsim.PageSize
		k.vmalloc[va] = pfn
		k.tlb.insert(va>>memsim.PageShift, pfn)
	}
	k.vmCursor = base + uint64(len(pfns)+1)*memsim.PageSize
	return base
}

// Vfree removes a vmalloc mapping of n pages at base, returning the backing
// frames.
func (k *Kmaps) Vfree(base uint64, n int) []uint64 {
	pfns := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		va := base + uint64(i)*memsim.PageSize
		if pfn, ok := k.vmalloc[va]; ok {
			pfns = append(pfns, pfn)
			delete(k.vmalloc, va)
			k.tlb.invalidate(va >> memsim.PageShift)
		}
	}
	return pfns
}

// MapPerCPU installs a per-cpu page.
func (k *Kmaps) MapPerCPU(va, pfn uint64) {
	k.perCPU[va&^0xfff] = pfn
	k.tlb.insert(va>>memsim.PageShift, pfn)
}

// lookupKernel resolves a vmalloc or per-cpu page VA through the kernel
// translation cache, falling back to the mapping tables on a miss.
func (k *Kmaps) lookupKernel(va uint64) (pfn uint64, ok bool) {
	vpn := va >> memsim.PageShift
	if pfn, ok = k.tlb.lookup(vpn); ok {
		return pfn, true
	}
	switch {
	case va >= memsim.VmallocBase && va < memsim.VmallocBase+memsim.VmallocSize:
		pfn, ok = k.vmalloc[va&^(memsim.PageSize-1)]
	case va >= memsim.PerCPUBase && va < memsim.PerCPUBase+memsim.PerCPUSize:
		pfn, ok = k.perCPU[va&^(memsim.PageSize-1)]
	}
	if ok {
		k.tlb.insert(vpn, pfn)
	}
	return pfn, ok
}

// VMA is one user mapping.
type VMA struct {
	Start, End uint64 // page aligned, [Start, End)
	// Heap marks the brk region.
	Heap bool
}

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va uint64) bool { return va >= v.Start && va < v.End }

// Pages is the VMA's page count.
func (v *VMA) Pages() uint64 { return (v.End - v.Start) / memsim.PageSize }

// User-half layout for simulated processes.
const (
	UserCodeBase  = 0x0000_0000_0040_0000
	UserHeapBase  = 0x0000_0000_1000_0000
	UserMmapBase  = 0x0000_7f00_0000_0000
	UserStackTop  = 0x0000_7fff_ff00_0000
	UserStackSize = 16 * memsim.PageSize
)

// AddrSpace is one process's address space.
type AddrSpace struct {
	phys *memsim.Phys
	bud  *buddy.Allocator
	km   *Kmaps
	ctx  sec.Ctx

	rootPFN  uint64
	ptPages  []uint64 // page-table frames, for teardown
	vmas     []*VMA
	mmapNext uint64
	brk      uint64
	brkStart uint64

	// tlb memoizes user-half walks; every mapping change below keeps it
	// coherent (see tlb.go for the invalidation-point inventory).
	tlb tlb

	// InKernel gates access to kernel-half addresses (the privilege check).
	InKernel bool
}

// NewAddrSpace creates an empty address space whose page-table frames are
// charged to ctx.
func NewAddrSpace(phys *memsim.Phys, bud *buddy.Allocator, km *Kmaps, ctx sec.Ctx) (*AddrSpace, error) {
	as := &AddrSpace{
		phys: phys, bud: bud, km: km, ctx: ctx,
		mmapNext: UserMmapBase,
		brk:      UserHeapBase,
		brkStart: UserHeapBase,
	}
	root, err := as.allocPT()
	if err != nil {
		return nil, err
	}
	as.rootPFN = root
	return as, nil
}

// Ctx reports the owning context.
func (as *AddrSpace) Ctx() sec.Ctx { return as.ctx }

// PTPages reports the page-table frames in use.
func (as *AddrSpace) PTPages() []uint64 { return as.ptPages }

func (as *AddrSpace) allocPT() (uint64, error) {
	pfn, ok := as.bud.AllocPages(0, as.ctx)
	if !ok {
		return 0, fmt.Errorf("vmm: out of memory for page table")
	}
	as.phys.ZeroFrame(pfn)
	as.ptPages = append(as.ptPages, pfn)
	return pfn, nil
}

func ptIndex(va uint64, level int) uint64 {
	return (va >> (12 + 9*uint(level))) & 0x1ff
}

func (as *AddrSpace) pte(tablePFN, idx uint64) uint64 {
	return as.phys.Read64(tablePFN*memsim.PageSize + idx*8)
}

func (as *AddrSpace) setPTE(tablePFN, idx, val uint64) {
	as.phys.Write64(tablePFN*memsim.PageSize+idx*8, val)
}

// MapPage installs va -> pfn, building intermediate tables as needed.
func (as *AddrSpace) MapPage(va, pfn uint64) error {
	if !memsim.IsUser(va) {
		return fmt.Errorf("vmm: MapPage outside user half: %#x", va)
	}
	table := as.rootPFN
	for level := 3; level > 0; level-- {
		idx := ptIndex(va, level)
		e := as.pte(table, idx)
		if e&pteP == 0 {
			next, err := as.allocPT()
			if err != nil {
				return err
			}
			as.setPTE(table, idx, next<<12|pteP)
			table = next
		} else {
			table = e >> 12
		}
	}
	as.setPTE(table, ptIndex(va, 0), pfn<<12|pteP)
	// A remap of an already-mapped VA must not leave the old translation
	// cached; inserting covers both the fresh-map and remap cases.
	as.tlb.insert(va>>memsim.PageShift, pfn)
	return nil
}

// UnmapPage removes the mapping for va, returning the backing frame.
func (as *AddrSpace) UnmapPage(va uint64) (pfn uint64, ok bool) {
	table := as.rootPFN
	for level := 3; level > 0; level-- {
		e := as.pte(table, ptIndex(va, level))
		if e&pteP == 0 {
			return 0, false
		}
		table = e >> 12
	}
	idx := ptIndex(va, 0)
	e := as.pte(table, idx)
	if e&pteP == 0 {
		return 0, false
	}
	as.setPTE(table, idx, 0)
	as.tlb.invalidate(va >> memsim.PageShift)
	return e >> 12, true
}

// Lookup resolves a user VA to its frame without simulated side effects,
// consulting the translation cache before walking the page table.
func (as *AddrSpace) Lookup(va uint64) (pfn uint64, ok bool) {
	vpn := va >> memsim.PageShift
	if pfn, ok = as.tlb.lookup(vpn); ok {
		return pfn, true
	}
	pfn, ok = as.lookupWalk(va)
	if ok {
		as.tlb.insert(vpn, pfn)
	}
	return pfn, ok
}

// lookupWalk is the raw 4-level page-table walk — the TLB's ground truth.
// Negative results are never cached: an unmapped page walks every time, so
// a later MapPage needs no negative-entry invalidation.
func (as *AddrSpace) lookupWalk(va uint64) (pfn uint64, ok bool) {
	table := as.rootPFN
	for level := 3; level > 0; level-- {
		e := as.pte(table, ptIndex(va, level))
		if e&pteP == 0 {
			return 0, false
		}
		table = e >> 12
	}
	e := as.pte(table, ptIndex(va, 0))
	if e&pteP == 0 {
		return 0, false
	}
	return e >> 12, true
}

// Translate implements memsim.Translator.
func (as *AddrSpace) Translate(va uint64) (uint64, bool) {
	if memsim.IsUser(va) {
		pfn, ok := as.Lookup(va)
		if !ok {
			return 0, false
		}
		return pfn*memsim.PageSize + va%memsim.PageSize, true
	}
	if pa, ok := memsim.DirectMapPA(va, as.km.PhysBytes); ok {
		return pa, true
	}
	if pfn, ok := as.km.lookupKernel(va); ok {
		return pfn*memsim.PageSize + va%memsim.PageSize, true
	}
	return 0, false
}

// KernelAllowed implements memsim.Translator.
func (as *AddrSpace) KernelAllowed() bool { return as.InKernel }

// AddVMA reserves a user range in the mmap area and returns its base.
func (as *AddrSpace) AddVMA(pages uint64) *VMA {
	v := &VMA{Start: as.mmapNext, End: as.mmapNext + pages*memsim.PageSize}
	// One-page guard gap.
	as.mmapNext = v.End + memsim.PageSize
	as.vmas = append(as.vmas, v)
	return v
}

// FindVMA returns the VMA containing va.
func (as *AddrSpace) FindVMA(va uint64) *VMA {
	for _, v := range as.vmas {
		if v.Contains(va) {
			return v
		}
	}
	return nil
}

// RemoveVMA drops the VMA (munmap bookkeeping). The caller unmaps/frees
// frames first.
func (as *AddrSpace) RemoveVMA(v *VMA) {
	for i, o := range as.vmas {
		if o == v {
			as.vmas[i] = as.vmas[len(as.vmas)-1]
			as.vmas = as.vmas[:len(as.vmas)-1]
			return
		}
	}
}

// VMAs returns the current mappings.
func (as *AddrSpace) VMAs() []*VMA { return as.vmas }

// Brk grows (or shrinks) the heap end and returns the new break and the
// page range that changed.
func (as *AddrSpace) Brk(newBrk uint64) (oldBrk uint64) {
	oldBrk = as.brk
	if newBrk >= as.brkStart {
		as.brk = newBrk
	}
	return oldBrk
}

// BrkRange reports the heap range.
func (as *AddrSpace) BrkRange() (start, end uint64) { return as.brkStart, as.brk }

// PageMapping is one mapped user page: virtual address and its frame.
type PageMapping struct {
	VA  uint64
	PFN uint64
}

// MappedUserPages walks the page tables collecting every mapped user page —
// fork uses this to copy the parent's memory. Pages are returned in
// ascending VA order (the walk visits table indexes in order), so callers
// that allocate or free frames while iterating do so deterministically —
// a map here would randomize buddy-allocator ordering and hence timing
// between otherwise identical runs.
func (as *AddrSpace) MappedUserPages() []PageMapping {
	var out []PageMapping
	as.walk(as.rootPFN, 3, 0, &out)
	return out
}

func (as *AddrSpace) walk(table uint64, level int, vaBase uint64, out *[]PageMapping) {
	for i := uint64(0); i < ptesPerPage; i++ {
		e := as.pte(table, i)
		if e&pteP == 0 {
			continue
		}
		va := vaBase | i<<(12+9*uint(level))
		if level == 0 {
			if memsim.IsUser(va) {
				*out = append(*out, PageMapping{VA: va, PFN: e >> 12})
			}
			continue
		}
		as.walk(e>>12, level-1, va, out)
	}
}

// ReleasePageTables frees the page-table frames; the kernel calls this at
// process teardown after freeing the mapped data frames. The translation
// cache dies with the tables: a recycled ASID (a new process in the same
// cgroup) builds a fresh AddrSpace and can never see these entries.
func (as *AddrSpace) ReleasePageTables() {
	for _, pfn := range as.ptPages {
		as.bud.Free(pfn)
	}
	as.ptPages = nil
	as.tlb.flush()
}
