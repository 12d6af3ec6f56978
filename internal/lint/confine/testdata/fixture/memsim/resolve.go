// The resolve half models the real memsim package's direct-map fast path:
// the privilege mirror and the functions allowed to touch it.

package memsim

const directMapBase = 1 << 40

type Translator interface {
	Translate(va uint64) (uint64, bool)
	KernelAllowed() bool
}

// The three allowed accessors: the mirror used freely.

func (m *Mem) ResolveFast(va uint64, size uint8) uint64 {
	pa := va - directMapBase
	if va >= directMapBase && m.kernOK && m.Phys.Contains(pa+uint64(size)-1) {
		return pa
	}
	return 0
}

func (m *Mem) SetTranslator(tr Translator) {
	m.tr = tr
	m.kernOK = tr.KernelAllowed()
}

func (m *Mem) SetKernelMode(on bool) { m.kernOK = on }

// Resolve is the front door: raw fast path plus the translator on a miss.
func (m *Mem) Resolve(va uint64, size uint8) (uint64, bool) {
	if pa := m.ResolveFast(va, size); pa != 0 {
		return pa, true
	}
	return m.tr.Translate(va)
}

// userMayRead models new code consulting the mirror ad hoc, in place of the
// translator it mirrors.
func (m *Mem) userMayRead(va uint64) bool {
	return va < directMapBase || m.kernOK // want `privilege mirror kernOK touched in memsim\.Mem\.userMayRead`
}

// warmup models a rogue in-package caller taking the raw hit with no miss
// fallback.
func (m *Mem) warmup(va uint64) uint64 {
	return m.ResolveFast(va, 8) // want `memsim\.Mem\.ResolveFast called in memsim\.Mem\.warmup outside the translation front doors`
}
