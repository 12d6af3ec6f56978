// Package cache models the real cache package: pure tag/LRU state with no
// memsim dependency, so the speculation gate finds nothing here, plus the
// L0-facing surface — the generation observation and the slot re-hit API
// the L0 rows confine.
package cache

type Cache struct {
	tags  []uint64
	clock uint64
	gens  [4]uint64
	mru   [4]int32
}

func (c *Cache) Lookup(tag uint64) bool {
	for _, t := range c.tags {
		if t == tag {
			return true
		}
	}
	return false
}

// GenAt is the ungated observation: pure read, no state change.
func (c *Cache) GenAt(addr uint64) uint64 { return c.gens[addr%4] }

// CommitHit re-applies a committed hit to slot. Gated.
func (c *Cache) CommitHit(slot int32) { c.clock++; c.mru[0] = slot }

// MRUSlot reports the MRU way's dense slot index. Gated.
func (c *Cache) MRUSlot(addr uint64) (int32, bool) { return c.mru[addr%4], true }

// Access is the full committed access everything else must use.
func (c *Cache) Access(addr uint64, update bool) bool {
	c.clock++
	return update
}
