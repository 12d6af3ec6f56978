package cpu

type l0Entry struct {
	line uint64
	gen  uint64
	slot int32
}

// SetL0Enabled is the lifecycle switch: may touch the state, nothing else.
func (c *Core) SetL0Enabled(on bool) {
	c.l0off = !on
	c.l0d = [4]l0Entry{}
	c.l0i = [4]l0Entry{}
}

// The four blessed accessors: state and re-hit API used freely.

func (c *Core) l0DataFast(pa uint64) int {
	e := &c.l0d[pa%4]
	if e.line == pa+1 && e.gen == c.L1D.GenAt(pa) {
		c.L1D.CommitHit(e.slot)
		return 2
	}
	return -1
}

func (c *Core) l0DataSlow(pa uint64) int {
	c.L1D.Access(pa, true)
	if c.l0off {
		return 2
	}
	if slot, ok := c.L1D.MRUSlot(pa); ok {
		c.l0d[pa%4] = l0Entry{line: pa + 1, gen: c.L1D.GenAt(pa), slot: slot}
	}
	return 2
}

func (c *Core) l0Inst(la uint64) bool {
	e := &c.l0i[la%4]
	if e.line == la+1 && e.gen == c.L1I.GenAt(la) {
		c.L1I.CommitHit(e.slot)
		return true
	}
	return false
}

func (c *Core) l0InstInstall(la uint64) {
	if slot, ok := c.L1I.MRUSlot(la); ok {
		c.l0i[la%4] = l0Entry{line: la + 1, gen: c.L1I.GenAt(la), slot: slot}
	}
}

// The committed path may consult the accessors: runThreaded (cpu.go) for
// loads and stores, fetchTimingLine for instruction fetch.

func (c *Core) fetchTimingLine(la uint64) {
	if c.l0Inst(la) {
		return
	}
	c.L1I.Access(la, true)
	c.l0InstInstall(la)
}

// prefetcher models new code re-hitting slots without a generation proof.
func (c *Core) prefetcher(pa uint64) {
	if slot, ok := c.L1D.MRUSlot(pa); ok { // want `cache\.Cache\.MRUSlot called in cpu\.Core\.prefetcher outside the L0 accessors`
		c.L1D.CommitHit(slot) // want `cache\.Cache\.CommitHit called in cpu\.Core\.prefetcher outside the L0 accessors`
	}
	_ = c.L1D.GenAt(pa) // GenAt is a pure observation: not gated
}
