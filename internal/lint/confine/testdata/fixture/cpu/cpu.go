// Package cpu exercises every confine row that reaches the core: the blessed
// accessors and the committed path pass, everything else reaching the memsim
// read API, the L0 micro-cache or the raw lookaside hit is flagged.
package cpu

import (
	"fixture/cache"
	"fixture/memsim"
)

type Core struct {
	Mem      *memsim.Mem
	L1D, L1I *cache.Cache
	l0d      [4]l0Entry
	l0i      [4]l0Entry
	l0off    bool
}

// runThreaded is blessed three times over: the committed-path executor
// (policy-checked and never inside a transient window), the L0's load and
// store caller, and a translation front door pairing every raw hit with the
// Resolve fallback on a miss.
func (c *Core) runThreaded(va uint64) uint64 {
	pa := c.Mem.ResolveFast(va, 8)
	if pa == 0 {
		pa, _ = c.Mem.Resolve(va, 8)
	}
	lat := c.l0DataFast(pa)
	if lat < 0 {
		lat = c.l0DataSlow(pa)
	}
	v := c.Mem.LoadPA(pa, 8)
	f := func() uint64 { return c.Mem.Phys.Read64(pa) } // closure inside a blessed accessor
	return v + f() + uint64(lat)
}

// specLoad is blessed as the transient-path data accessor, but a transient
// path reaching for the L0 (state or accessor) or the raw lookaside hit is a
// confined violation.
func (c *Core) specLoad(va, pa uint64) uint64 {
	if e := c.l0d[pa%4]; e.line == pa+1 { // want `L0 micro-cache state l0d touched in cpu\.Core\.specLoad`
		return 2
	}
	if c.l0DataSlow(pa) < 0 { // want `L0 accessor l0DataSlow called in cpu\.Core\.specLoad outside the committed path`
		return 0
	}
	if c.Mem.ResolveFast(va, 8) == 0 { // want `memsim\.Mem\.ResolveFast called in cpu\.Core\.specLoad outside the translation front doors`
		return 0
	}
	return c.Mem.Phys.Read64(pa)
}

// runTransient models a new speculation feature bypassing the check API.
func (c *Core) runTransient(pa uint64) uint64 {
	if pa2, ok := c.Mem.Resolve(pa, 8); ok { // translation is not gated
		return c.Mem.LoadPA(pa2, 8) // want `direct memsim\.Mem\.LoadPA read`
	}
	return uint64(c.Mem.Phys.Read8(pa)) // want `direct memsim\.Phys\.Read8 read`
}

func (c *Core) flush(pa uint64) {
	c.Mem.StorePA(pa, 8, 0) // writes are not gated (transient stores never reach memory)
}

func helper(m *memsim.Mem) uint64 {
	v, _ := m.Load(0, 8) // want `direct memsim\.Mem\.Load read`
	return v
}

// stash takes confined methods as method values: each is flagged where it
// is named, whoever calls it later.
func (c *Core) stash(va, pa uint64) uint64 {
	load := c.Mem.LoadPA      // want `direct memsim\.Mem\.LoadPA read in cpu\.Core\.stash`
	fast := c.Mem.ResolveFast // want `memsim\.Mem\.ResolveFast called in cpu\.Core\.stash outside the translation front doors`
	mru := c.L1D.MRUSlot      // want `cache\.Cache\.MRUSlot called in cpu\.Core\.stash outside the L0 accessors`
	slot, _ := mru(pa)
	return load(pa, 8) + fast(va, 8) + uint64(slot)
}

// hook is a package-level function literal: no function declaration
// encloses it, so it stands as the variable it initializes.
var hook = func(c *Core, pa uint64) uint64 {
	return c.Mem.LoadPA(pa, 8) // want `direct memsim\.Mem\.LoadPA read in cpu\.hook`
}

// tracer embeds the core: a promoted field still belongs to Core.
type tracer struct{ *Core }

func (t tracer) enabled() bool {
	return !t.l0off // want `L0 micro-cache state l0off touched in cpu\.tracer\.enabled`
}

// debugDump carries the escape hatch with a reason, once per row it crosses.
func (c *Core) debugDump(pa uint64) (uint64, bool) {
	//lint:allow confine -- fixture: debug dump, never on the simulated path
	v := c.Mem.Phys.Read64(pa)
	//lint:allow confine -- fixture: diagnostics dump, never on the simulated path
	return v, c.l0off
}
