// L0 line-lookaside micro-caches: the committed-path memory-system fast
// path (DESIGN.md §12). Each core carries two small direct-mapped host-side
// tables — one in front of the L1I, one in front of the L1D — mapping a
// line address to "this line is known to be resident in that L1, at this
// slot". A hit bypasses Hierarchy.AccessData/AccessInst entirely and
// re-applies the exact state transition a committed L1 hit performs
// (cache.Cache.CommitHit: clock advance, access/hit counters, stamp
// update), returning the constant L1 hit latency. The simulated machine is
// byte-identical by construction; the only thing skipped is host work.
//
// Validity protocol: an entry records the generation counter of the owning
// cache *set* (cache.Cache.GenAt), which advances on every fill, forced
// eviction, flush, and invalidation touching that set — every event that
// can change *which line lives where* — and on nothing else. An entry whose
// generation still matches is therefore proof that its slot still holds its
// line. There is no partial invalidation to get wrong: any content change
// in a set invalidates every outstanding entry for that set at once.
//
// The L0 is consulted from the committed path only — runThreaded
// loads/stores, and fetchTimingLine instruction fetches.
// Transient (wrong-path) accesses must take the full hierarchy: their LRU
// deferral (updateLRU=false) is a different state transition, and routing
// them around the Policy consult in specLoad would open a side channel the
// defenses never see. perspective-lint's confine analyzer (the L0 rows)
// enforces that confinement statically.
package cpu

// l0Bits sizes the direct-mapped tables: 512 entries cover 32 KB of
// 64-byte lines — the whole L1 — so a hit-heavy phase never self-evicts.
const (
	l0Bits = 9
	l0Size = 1 << l0Bits
	l0Mask = l0Size - 1
)

// l0Entry is one micro-cache slot. line holds the line address + 1 (0 =
// invalid), gen the owning cache's generation at install time, slot the
// dense tag-array index cache.CommitHit re-hits.
type l0Entry struct {
	line uint64
	gen  uint64
	slot int32
}

// SetL0Enabled switches the micro-caches off (and drops their contents) or
// back on. Differential suites pin L0-on ≡ L0-off; the default is on.
func (c *Core) SetL0Enabled(on bool) {
	c.l0off = !on
	c.l0d = [l0Size]l0Entry{}
	c.l0i = [l0Size]l0Entry{}
}

// l0DataFast is the committed-path D-side lookaside probe: on a valid entry
// it re-applies the L1-MRU hit transition and returns the L1 hit latency;
// on a miss it returns -1 and the caller takes l0DataSlow. The split keeps
// the probe within the inlining budget so the dispatch loop pays no call on
// the (overwhelmingly common) hit.
func (c *Core) l0DataFast(pa uint64) int {
	line := pa >> c.l0dShift
	e := &c.l0d[line&l0Mask]
	if e.line == line+1 && e.gen == c.H.L1D.GenAt(pa) {
		c.H.L1D.CommitHit(e.slot)
		return c.H.L1Lat
	}
	return -1
}

// l0DataSlow takes the full hierarchy and installs the entry for next time.
// Install happens on hits and fills alike: either way the line is resident
// in L1D afterwards, which is all an entry asserts. The generation is read
// after the access so any fill the access itself performed is folded in.
func (c *Core) l0DataSlow(pa uint64) int {
	lat, _ := c.H.AccessData(pa, true)
	if c.l0off {
		return lat
	}
	if slot, ok := c.H.L1D.MRUSlot(pa); ok {
		line := pa >> c.l0dShift
		c.l0d[line&l0Mask] = l0Entry{line: line + 1, gen: c.H.L1D.GenAt(pa), slot: slot}
	}
	return lat
}

// l0Inst is the committed-path I-side access used by fetchTimingLine: a hit
// means the fetch line is L1I-resident, so the fetch charges nothing beyond
// the pipelined L1 latency (lat == L1Lat makes fetchTimingLine's charge
// zero) and only the L1I hit transition is applied.
func (c *Core) l0Inst(la uint64) bool {
	line := la >> c.l0iShift
	e := &c.l0i[line&l0Mask]
	if e.line == line+1 && e.gen == c.H.L1I.GenAt(la) {
		c.H.L1I.CommitHit(e.slot)
		return true
	}
	return false
}

// l0InstInstall records la's line after a full AccessInst resolved it.
func (c *Core) l0InstInstall(la uint64) {
	if c.l0off {
		return
	}
	if slot, ok := c.H.L1I.MRUSlot(la); ok {
		line := la >> c.l0iShift
		c.l0i[line&l0Mask] = l0Entry{line: line + 1, gen: c.H.L1I.GenAt(la), slot: slot}
	}
}
