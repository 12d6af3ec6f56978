// The lookaside half models the real memsim package's resolve lookaside: the
// VA→PA cache, its generation snapshot, and the blessed accessors.

package memsim

const pageSize = 4096

type lkEntry struct {
	tag, gen, pa uint64
}

type Translator interface {
	Translate(va uint64) (uint64, bool)
	KernelAllowed() bool
}

var lkNeverGen uint64

// The five blessed accessors: state used freely.

func (m *Mem) ResolveFast(va uint64, size uint8) uint64 {
	e := &m.lk[(va/pageSize)%64]
	if e.tag == va/pageSize+1 && e.gen == *m.trGen && m.kernOK {
		_ = size
		return e.pa + va%pageSize
	}
	return 0
}

func (m *Mem) lkInstall(va, pa uint64) {
	if m.trGen == nil {
		return
	}
	m.lk[(va/pageSize)%64] = lkEntry{tag: va/pageSize + 1, gen: *m.trGen, pa: pa}
}

func (m *Mem) SetTranslator(tr Translator, gen *uint64) {
	m.tr = tr
	m.lk = [64]lkEntry{}
	if gen == nil {
		m.trGen = &lkNeverGen
	} else {
		m.trGen = gen
	}
	m.kernOK = tr.KernelAllowed()
}

func (m *Mem) SetKernelMode(on bool) { m.kernOK = on }

func (m *Mem) VerifyLookaside() error {
	for i := range m.lk {
		if e := &m.lk[i]; e.tag != 0 && e.gen == *m.trGen {
			_ = e.pa
		}
	}
	return nil
}

// Resolve is the front door: raw fast path plus checked-walk fallback and
// install on a miss.
func (m *Mem) Resolve(va uint64, size uint8) (uint64, bool) {
	if pa := m.ResolveFast(va, size); pa != 0 {
		return pa, true
	}
	pa, ok := m.tr.Translate(va)
	if ok {
		m.lkInstall(va, pa)
	}
	return pa, ok
}

// debugPeek models new code consulting the table ad hoc, skipping the
// generation and privilege checks.
func (m *Mem) debugPeek(va uint64) uint64 {
	return m.lk[(va/pageSize)%64].pa // want `lookaside state lk touched in memsim\.Mem\.debugPeek`
}

// warmup models a rogue in-package caller taking the raw hit with no miss
// fallback.
func (m *Mem) warmup(va uint64) uint64 {
	return m.ResolveFast(va, 8) // want `memsim\.Mem\.ResolveFast called in memsim\.Mem\.warmup outside the translation front doors`
}
