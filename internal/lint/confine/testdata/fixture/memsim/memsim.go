// Package memsim mirrors the shape of the real simulated-memory API: the
// read accessors the speculation gate denies and the write accessors it does
// not. The package itself is out of the gate's scope.
package memsim

type Phys struct{ b []byte }

func (p *Phys) Read64(pa uint64) uint64       { return uint64(p.b[pa]) }
func (p *Phys) Read8(pa uint64) byte          { return p.b[pa] }
func (p *Phys) CopyOut(pa uint64, dst []byte) { copy(dst, p.b[pa:]) }
func (p *Phys) Write64(pa uint64, v uint64)   { p.b[pa] = byte(v) }
func (p *Phys) Contains(pa uint64) bool       { return pa < uint64(len(p.b)) }

type Mem struct {
	Phys   *Phys
	tr     Translator
	kernOK bool
}

func (m *Mem) Load(va uint64, size uint8) (uint64, bool) { return m.Phys.Read64(va), true }
func (m *Mem) LoadPA(pa uint64, size uint8) uint64       { return m.Phys.Read64(pa) }
func (m *Mem) StorePA(pa uint64, size uint8, v uint64)   { m.Phys.Write64(pa, v) }
