// Decoded-program plumbing: the kernel image owns the pre-decoded form of
// its own text (internal/bbcache) and the version tokens that invalidate
// it. The linked text is normally immutable, so one decode serves every
// machine cloned from the image — Decoded() memoizes through an atomic
// pointer shared across harness worker goroutines. Tests that patch text
// (self-modifying kernels, fuzzers) bump the version with every PatchInst /
// SetInstValid call, which strands the cached program; the next Decoded()
// rebuilds from the current words. Patching is single-writer: it must not
// race with a running core, whose single-op fetches read the same words
// through InstAt.

package kimage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bbcache"
	"repro/internal/isa"
)

// TextVersion reports the current text version token. Version 0 is the
// as-linked text; every patch increments it.
func (img *Image) TextVersion() uint64 { return img.version }

// PatchInst replaces the instruction word at va and bumps the text version.
// The new instruction must be fully linked (no unresolved Sym); the slot
// becomes valid. Single-op dispatch fetches through InstAt, so it sees the
// patch immediately; the decoded program sees it through the version bump.
func (img *Image) PatchInst(va uint64, in isa.Inst) error {
	if in.Sym != "" {
		return fmt.Errorf("kimage: PatchInst at %#x: unresolved symbol %q", va, in.Sym)
	}
	idx, err := img.slotOf(va)
	if err != nil {
		return err
	}
	img.flat[idx] = in
	img.valid[idx] = true
	img.version++
	return nil
}

// SetInstValid marks the slot at va fetchable or unfetchable (text unmap /
// remap) and bumps the text version.
func (img *Image) SetInstValid(va uint64, ok bool) error {
	idx, err := img.slotOf(va)
	if err != nil {
		return err
	}
	img.valid[idx] = ok
	img.version++
	return nil
}

func (img *Image) slotOf(va uint64) (int, error) {
	if va < img.base || va%isa.InstBytes != 0 {
		return 0, fmt.Errorf("kimage: address %#x outside text", va)
	}
	idx := int(va-img.base) / isa.InstBytes
	if idx >= len(img.flat) {
		return 0, fmt.Errorf("kimage: address %#x outside text", va)
	}
	return idx, nil
}

// Decoded returns the pre-decoded basic-block program for the current text
// version, building it on first use and after any patch. The result is
// immutable and shared: concurrent callers (cloned machines on harness
// workers) all get the same program.
func (img *Image) Decoded() *bbcache.Program {
	v := img.version
	if p := img.decoded.Load(); p != nil && p.Version() == v {
		return p
	}
	entries := make([]uint64, len(img.funcs))
	for i, f := range img.funcs {
		entries[i] = f.VA
	}
	p := bbcache.Build(img.base, img.flat, img.valid, entries, v)
	img.decoded.Store(p)
	return p
}

// decodedPtr is the memoization cell type (declared here to keep image.go
// free of the bbcache dependency).
type decodedPtr = atomic.Pointer[bbcache.Program]
