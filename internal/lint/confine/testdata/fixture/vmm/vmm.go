// Package vmm models the real vmm package's epoch surface: the machine-wide
// translation generation the lookaside re-validates against.
package vmm

type Kmaps struct {
	epoch uint64
	next  uint64
}

// The blessed readers: the two pointer accessors memsim snapshots.

func (k *Kmaps) EpochPtr() *uint64 { return &k.epoch }

type AddrSpace struct {
	km *Kmaps
}

func (as *AddrSpace) TranslationEpoch() *uint64 { return &as.km.epoch }

// The blessed mutators: every translation change bumps the generation.

func (k *Kmaps) Vmalloc(n int) uint64 {
	k.epoch++
	k.next += uint64(n)
	return k.next
}

func (k *Kmaps) Vfree(base uint64) uint64 {
	k.epoch++
	return base
}

func (k *Kmaps) MapPerCPU(va uint64) {
	k.epoch++
	_ = va
}

func (as *AddrSpace) bumpEpoch() { as.km.epoch++ }

// Clone is a fresh machine with its own generation: it copies next but must
// never name epoch, and doesn't.
func (k *Kmaps) Clone() *Kmaps { return &Kmaps{next: k.next} }

// resetEpoch models a stray writer zeroing the generation: stale lookaside
// entries would re-validate after a remap.
func (as *AddrSpace) resetEpoch() {
	as.km.epoch = 0 // want `Kmaps\.epoch touched in vmm\.AddrSpace\.resetEpoch`
}

// snoopEpoch carries the escape hatch with a reason.
func (as *AddrSpace) snoopEpoch() uint64 {
	//lint:allow confine -- fixture: diagnostics snapshot, never on the simulated path
	return as.km.epoch
}
