// Machine snapshot/clone engine. Booting a machine — kernel init, page-table
// construction, buddy/slab warm-up, DSV/ISV population — is the dominant
// host cost when an evaluation runs hundreds of cells that all boot the
// *same* configuration. A Snapshot captures the complete post-boot
// state of one (Config, Image) machine exactly once; every later cell clones
// it: the physical store is shared copy-on-write at 64 KB granularity
// (memsim.PhysSnapshot) and only the small mutable OS structures — buddy and
// slab freelists, cgroup hierarchy, kernel mappings, DSV/ISV directories —
// are deep-copied. A clone is observationally identical to a fresh boot
// (enforced by differential tests), and Clone is safe to call concurrently.
package kernel

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/cgroup"
	"repro/internal/dsv"
	"repro/internal/isv"
	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/slab"
	"repro/internal/vmm"
)

// Snapshot is the frozen post-boot state of one machine configuration. It is
// immutable: the captured structures serve only as templates for Clone and
// are never handed out directly.
type Snapshot struct {
	cfg  Config
	img  *kimage.Image
	phys *memsim.PhysSnapshot

	buddy *buddy.Allocator
	slab  *slab.Allocator
	cg    *cgroup.Manager
	km    *vmm.Kmaps
	dsv   *dsv.Dir
	isv   *isv.Dir

	xusbBufVA uint64
	nextPID   int
	stats     Stats
}

// Snapshot freezes k's state, consuming the machine: k's physical memory is
// poisoned (any later access panics) and its OS structures become the
// snapshot's private templates, so k must not be used — or Released — after
// this returns. Only a pristine post-boot machine may be snapshotted: no
// processes ever created and the core never run. Anything else (live tasks,
// warmed hardware caches, futex waiters) would need a far deeper copy than
// the boot path can ever produce, so it is rejected rather than silently
// mis-cloned.
func (k *Kernel) Snapshot() (*Snapshot, error) {
	if len(k.tasks) != 0 || k.nextPID != 1 {
		return nil, fmt.Errorf("kernel: snapshot of machine with process history (nextPID=%d)", k.nextPID)
	}
	if k.Core.Now() != 0 || k.Core.Stats.Insts != 0 || k.Stats.HandlerRuns != 0 {
		return nil, fmt.Errorf("kernel: snapshot of machine whose core has run (now=%v)", k.Core.Now())
	}
	return &Snapshot{
		cfg:       k.Cfg,
		img:       k.Img,
		phys:      k.Phys.Freeze(),
		buddy:     k.Buddy,
		slab:      k.Slab,
		cg:        k.Cg,
		km:        k.Km,
		dsv:       k.DSV,
		isv:       k.ISV,
		xusbBufVA: k.xusbBufVA,
		nextPID:   k.nextPID,
		stats:     k.Stats,
	}, nil
}

// NewSnapshot boots a machine with New and immediately freezes it — the
// usual way to obtain a Snapshot.
func NewSnapshot(cfg Config, img *kimage.Image) (*Snapshot, error) {
	k, err := New(cfg, img)
	if err != nil {
		return nil, err
	}
	return k.Snapshot()
}

// Config reports the configuration the snapshotted machine booted with.
func (s *Snapshot) Config() Config { return s.cfg }

// Clone builds a ready-to-run machine from the snapshot. The physical store
// is shared copy-on-write; allocator, cgroup, mapping and view state are
// deep-copied; core, cache hierarchy, predictors and trace recorder are
// constructed in their reset state (exactly what the pristine-machine guard
// in Snapshot certified). Clones are independent: writes in one never reach
// a sibling or the snapshot. Safe to call concurrently.
func (s *Snapshot) Clone() *Kernel {
	bud := s.buddy.Clone()
	k := &Kernel{
		Cfg:        s.cfg,
		Phys:       s.phys.Clone(),
		Buddy:      bud,
		Slab:       s.slab.Clone(bud),
		Cg:         s.cg.Clone(),
		Km:         s.km.Clone(),
		DSV:        s.dsv.Clone(),
		ISV:        s.isv.Clone(),
		Img:        s.img,
		tasks:      make(map[int]*Task),
		nextPID:    s.nextPID,
		futexWaits: make(map[uint64][]*Task),
		listeners:  make(map[uint64]listener),
		xusbBufVA:  s.xusbBufVA,
		Stats:      s.stats,
	}
	k.wireHardware()
	return k
}
