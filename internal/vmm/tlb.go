// Host-side translation cache (software TLB).
//
// Every simulated load, store and user-copy resolves a virtual address, and
// before this cache existed each resolution re-walked the 4-level software
// page table (four pte reads in simulated physical memory) or probed the
// vmalloc/per-cpu maps. The TLB memoizes page VA -> PFN per address space,
// exactly the structure the paper's own ASID-tagged DSV/ISV caches use
// (§6.2) — except this one is *pure host-side memoization*: it changes no
// simulated cycle count, cache fill, or report byte. The determinism and
// golden-file suites are the oracle for that claim, and VerifyAgainstWalk
// is the executable proof that the cache never diverges from the raw walk.
//
// Tagging: one TLB per AddrSpace is the moral equivalent of ASID tagging —
// an address space *is* an ASID here, and a torn-down AddrSpace takes its
// cache with it, so ASID reuse after exit can never observe stale entries.
//
// Invalidation points (each covered by a dedicated test):
//
//   - MapPage        — a remap of an already-mapped VA updates the entry
//   - UnmapPage      — munmap / page free drops the entry
//   - ReleasePageTables — address-space teardown flushes everything
//   - Kmaps.Vmalloc / Vfree / MapPerCPU — kernel-half (re)mapping updates
//     the shared kernel translation cache
//   - FlushTLB       — KPTI kernel entry/exit (the kernel switches page
//     tables, so the memoized user walks are conservatively dropped)
package vmm

import (
	"fmt"

	"repro/internal/memsim"
)

// tlbBits sizes the direct-mapped translation cache (1<<tlbBits entries).
// 1024 entries cover 4 MB of working set per address space; the harness
// workloads stay well inside that, and a conflict miss only costs the walk
// the entry memoized in the first place.
const tlbBits = 10

const (
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEntry is one cached translation. tag holds VPN+1 so the zero value is
// an invalid entry and a flush is a plain clear().
type tlbEntry struct {
	tag uint64 // virtual page number + 1; 0 = invalid
	pfn uint64
}

// TLBStats counts host-side translation-cache events. These are simulator
// diagnostics (surfaced by the bench layer), not simulated state: no
// simulated cycle depends on them.
type TLBStats struct {
	Hits    uint64
	Misses  uint64 // walks that filled an entry
	Flushes uint64 // whole-cache invalidations
	Evicts  uint64 // targeted single-page invalidations
}

// tlb is the direct-mapped translation cache shared by the user-half
// (AddrSpace) and kernel-half (Kmaps) fast paths.
type tlb struct {
	entries [tlbSize]tlbEntry
	stats   TLBStats
}

// lookup returns the cached PFN for the page containing va.
func (t *tlb) lookup(vpn uint64) (pfn uint64, ok bool) {
	e := &t.entries[vpn&tlbMask]
	if e.tag == vpn+1 {
		t.stats.Hits++
		return e.pfn, true
	}
	return 0, false
}

// insert memoizes vpn -> pfn (also the update path for remaps).
func (t *tlb) insert(vpn, pfn uint64) {
	t.stats.Misses++
	t.entries[vpn&tlbMask] = tlbEntry{tag: vpn + 1, pfn: pfn}
}

// invalidate drops the entry for vpn if present.
func (t *tlb) invalidate(vpn uint64) {
	e := &t.entries[vpn&tlbMask]
	if e.tag == vpn+1 {
		*e = tlbEntry{}
		t.stats.Evicts++
	}
}

// flush empties the cache.
func (t *tlb) flush() {
	clear(t.entries[:])
	t.stats.Flushes++
}

// FlushTLB invalidates every cached user translation. The kernel calls this
// on kernel entry/exit when the active defense models KPTI (separate
// user/kernel page tables): the memoization must not outlive a simulated
// page-table switch, even though the privilege check already makes a stale
// hit unreachable — conservative flushing keeps the cache's correctness
// argument local.
func (as *AddrSpace) FlushTLB() {
	as.tlb.flush()
}

// TLBStats reports the address space's translation-cache counters.
func (as *AddrSpace) TLBStats() TLBStats { return as.tlb.stats }

// KernelTLBStats reports the shared kernel-half cache counters.
func (k *Kmaps) KernelTLBStats() TLBStats { return k.tlb.stats }

// VerifyAgainstWalk checks every live TLB entry against the raw page-table
// walk and returns an error on the first divergence. The differential tests
// call it after every mutation batch: it is the executable statement of the
// cache's one invariant — a hit returns exactly what the walk would.
func (as *AddrSpace) VerifyAgainstWalk() error {
	for i := range as.tlb.entries {
		e := as.tlb.entries[i]
		if e.tag == 0 {
			continue
		}
		va := (e.tag - 1) << memsim.PageShift
		pfn, ok := as.lookupWalk(va)
		if !ok {
			return fmt.Errorf("vmm: stale TLB entry %#x -> pfn %d (page unmapped)", va, e.pfn)
		}
		if pfn != e.pfn {
			return fmt.Errorf("vmm: divergent TLB entry %#x -> pfn %d, walk says %d", va, e.pfn, pfn)
		}
	}
	return nil
}

// VerifyAgainstMaps checks the kernel-half cache against the vmalloc and
// per-cpu mapping tables.
func (k *Kmaps) VerifyAgainstMaps() error {
	for i := range k.tlb.entries {
		e := k.tlb.entries[i]
		if e.tag == 0 {
			continue
		}
		va := (e.tag - 1) << memsim.PageShift
		var pfn uint64
		var ok bool
		switch {
		case va >= memsim.VmallocBase && va < memsim.VmallocBase+memsim.VmallocSize:
			pfn, ok = k.vmalloc[va]
		case va >= memsim.PerCPUBase && va < memsim.PerCPUBase+memsim.PerCPUSize:
			pfn, ok = k.perCPU[va]
		default:
			return fmt.Errorf("vmm: kernel TLB entry outside cacheable windows: %#x", va)
		}
		if !ok {
			return fmt.Errorf("vmm: stale kernel TLB entry %#x -> pfn %d (unmapped)", va, e.pfn)
		}
		if pfn != e.pfn {
			return fmt.Errorf("vmm: divergent kernel TLB entry %#x -> pfn %d, map says %d", va, e.pfn, pfn)
		}
	}
	return nil
}
