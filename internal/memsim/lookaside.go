// Resolve lookaside: the translation half of the memory-system fast path
// (DESIGN.md §12). Every committed and transient access resolves a virtual
// address, and even with vmm's per-address-space TLB each resolution pays
// two interface dispatches (KernelAllowed, Translate) plus the privilege,
// straddle and containment checks. This direct-mapped table memoizes the
// final answer — page VA -> physical page base — right inside Mem, where
// the core's inlined fast path can reach it with three loads and no calls.
//
// Like the vmm TLB it is pure host-side memoization: Resolve has no
// simulated side effects, so a lookaside hit changes no simulated cycle,
// fill, or report byte. Unlike the vmm TLB, entries are validated by a
// generation counter rather than by eager invalidation: the counter lives
// in vmm.Kmaps (one per machine, shared by all its address spaces) and is
// bumped by every mapping mutation — MapPage, UnmapPage, ReleasePageTables,
// FlushTLB, Vmalloc, Vfree, MapPerCPU — and by every translator switch
// (Mem.SetTranslator). A hit whose recorded generation still matches is
// therefore proof the page's translation is unchanged since install.
//
// The privilege check cannot be folded into the generation (kernel
// entry/exit happens per syscall; invalidating the table each time would
// defeat it), so it stays inline: kernel-half hits additionally require the
// mirrored kernel-mode bit (Mem.SetKernelMode) to be set. User-half pages
// are accessible in both modes, so they need no mode check at all.
package memsim

import "fmt"

// lkBits sizes the direct-mapped lookaside: 1024 entries cover 4 MB of
// resolved pages, matching the vmm TLB's reach.
const (
	lkBits = 10
	lkSize = 1 << lkBits
	lkMask = lkSize - 1
)

// lkEntry is one memoized resolution. tag holds the virtual page number + 1
// (0 = invalid), gen the translation generation at install time, pa the
// physical page base.
type lkEntry struct {
	tag uint64
	gen uint64
	pa  uint64
}

// ResolveMiss is ResolveFast's "consult the slow path" sentinel. It can
// never collide with a real resolution: physical addresses are bounded by
// Phys.Contains.
const ResolveMiss = ^uint64(0)

// ResolveFast is the inlinable lookaside probe: on a valid, in-page,
// privilege-clean hit it returns the physical address, else ResolveMiss
// (meaning "call Resolve", not "fault" — only the slow path can fault).
// The e.tag match implies trGen was non-nil at install time, and
// SetTranslator clears the table before ever clearing trGen, so the
// dereference is safe.
func (m *Mem) ResolveFast(va uint64, size uint8) uint64 {
	vpn := va >> PageShift
	e := &m.lk[vpn&lkMask]
	off := va & (PageSize - 1)
	if e.tag == vpn+1 && e.gen == *m.trGen &&
		off+uint64(size) <= PageSize && (va < DirectMapBase || m.kernOK) {
		return e.pa + off
	}
	return ResolveMiss
}

// lkInstall memoizes a successful slow-path resolution for the whole page.
// Page mappings are uniform (every translator maps whole pages), so one
// resolved offset vouches for the page base; the containment guard extends
// translateChecked's end-of-access check to the full page so any in-page
// offset a future hit computes stays inside Phys.
func (m *Mem) lkInstall(va, pa uint64) {
	if m.trGen == nil || m.trGen == &lkNeverGen {
		return
	}
	base := pa &^ uint64(PageSize-1)
	if !m.Phys.Contains(base + PageSize - 1) {
		return
	}
	vpn := va >> PageShift
	m.lk[vpn&lkMask] = lkEntry{tag: vpn + 1, gen: *m.trGen, pa: base}
}

// lkNeverGen backs Mems whose translator has no generation counter (the
// FixedTranslator harness paths): pointing trGen here keeps ResolveFast's
// dereference unconditional while lkInstall refuses to populate, so the
// fast path is simply never taken.
var lkNeverGen uint64

// SetTranslator switches the active translator and its generation counter
// (nil for translators without one, which disables the lookaside). The
// bump-on-switch invalidates every entry memoized under the previous
// translator: two address spaces of one machine share one counter, so
// without it a context switch could serve the old space's pages.
// Re-asserting the current translator (the kernel does on every syscall)
// keeps the table: every mapping mutation bumps the counter itself, so an
// entry whose generation still matches is current, and only the privilege
// mirror needs refreshing.
func (m *Mem) SetTranslator(tr Translator, gen *uint64) {
	if gen != nil && gen == m.trGen && tr == m.Tr {
		m.kernOK = tr.KernelAllowed()
		return
	}
	m.Tr = tr
	if gen == nil {
		m.lk = [lkSize]lkEntry{}
		m.trGen = &lkNeverGen
	} else {
		*gen++
		m.trGen = gen
	}
	m.kernOK = tr.KernelAllowed()
}

// SetKernelMode mirrors the translator's KernelAllowed state for the
// inline privilege check. The kernel calls it at every simulated kernel
// entry and exit, beside the AddrSpace.InKernel flip it mirrors.
func (m *Mem) SetKernelMode(on bool) { m.kernOK = on }

// VerifyLookaside checks every live entry against the ground-truth
// translation path and returns the first divergence — the executable
// statement of the lookaside's invariant, called by the differential
// suites after mutation churn. A generation-stale entry is not an error
// (it is exactly what the generation check is for); only a *current* entry
// that contradicts the walk is.
func (m *Mem) VerifyLookaside() error {
	if m.trGen == nil {
		return nil
	}
	for i := range m.lk {
		e := &m.lk[i]
		if e.tag == 0 || e.gen != *m.trGen {
			continue
		}
		va := (e.tag - 1) << PageShift
		pa, ok := m.Tr.Translate(va)
		if !ok {
			return errStaleLookaside(va, e.pa)
		}
		if pa&^uint64(PageSize-1) != e.pa {
			return errDivergentLookaside(va, e.pa, pa)
		}
	}
	return nil
}

func errStaleLookaside(va, pa uint64) error {
	return fmt.Errorf("memsim: stale lookaside entry %#x -> pa %#x (page unmapped)", va, pa)
}

func errDivergentLookaside(va, cached, walk uint64) error {
	return fmt.Errorf("memsim: divergent lookaside entry %#x -> pa %#x, translator says %#x", va, cached, walk)
}
