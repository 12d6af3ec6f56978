// Package cpu exercises the speculation gate: blessed accessors read
// freely, everything else must not touch the memsim read API directly.
package cpu

import "fixture/memsim"

type Core struct{ Mem *memsim.Mem }

// Run is blessed (the architectural execute loop).
func (c *Core) Run(pa uint64) uint64 {
	v := c.Mem.LoadPA(pa, 8)
	f := func() uint64 { return c.Mem.Phys.Read64(pa) } // closure inside a blessed accessor
	return v + f()
}

// specLoad is blessed (the transient-path accessor).
func (c *Core) specLoad(pa uint64) uint64 {
	return c.Mem.Phys.Read64(pa)
}

// runThreaded is blessed (Run's committed-path executor, policy-checked
// and never inside a transient window).
func (c *Core) runThreaded(pa uint64) uint64 {
	return c.Mem.LoadPA(pa, 8)
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

// debugDump carries the escape hatch with a reason.
func (c *Core) debugDump(pa uint64) uint64 {
	//lint:allow specgate -- fixture: debug dump, never on the simulated path
	return c.Mem.Phys.Read64(pa)
}
