// Package cache models the physically indexed cache hierarchy of Table 7.1:
// private L1 instruction and data caches, a shared L2 slice, and a flat DRAM
// latency behind it. Speculative (wrong-path) loads fill lines exactly like
// committed loads — that is the covert channel every Spectre variant in the
// paper transmits over — but, following Perspective's hardware rules (§6.2),
// a speculative hit does not update LRU state until the access reaches its
// visibility point.
package cache

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Level identifies where an access was satisfied.
type Level int

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = iota
	// LevelL2 is a second-level hit.
	LevelL2
	// LevelMem is a DRAM access.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "Mem"
	}
}

// Config describes one cache array.
type Config struct {
	Sets      int
	Ways      int
	LineBytes int
}

// Lines reports the capacity in lines.
func (c Config) Lines() int { return c.Sets * c.Ways }

// Bytes reports the capacity in bytes.
func (c Config) Bytes() int { return c.Lines() * c.LineBytes }

// Stats counts accesses for one cache array.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Fills    uint64
	Flushes  uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative array with true-LRU replacement.
//
// Line metadata is kept struct-of-arrays: tags and LRU stamps live in two
// dense parallel slices indexed by set*Ways+way. The hit check scans only
// tags — eight per 64-byte host line instead of four {tag,stamp} pairs — and
// stamps are touched exactly once per hit or fill. A tag holds the address
// tag + 1 so the zero value is an invalid way (no separate valid array).
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint // lineShift + log2(Sets), precomputed off the hot path
	setMask   uint64
	tags      []uint64 // address tag + 1 per slot; 0 = invalid
	stamps    []uint64 // LRU timestamp per slot
	// mru holds each set's most-recently-hit/filled way, probed before the
	// full scan. Purely a host-side shortcut: tags are unique within a set,
	// so a hint hit returns exactly what the scan would have found, and
	// misses still scan every way in index order (victim choice unchanged).
	mru   []int32
	clock uint64
	// gens counts content-changing events per set: every fill (and the
	// eviction it implies), flush, and whole-array invalidation bumps the
	// affected set's counter. Hits — with or without an LRU update — do not.
	// A slot observed together with its set's generation therefore stays
	// *tag-stable* while that generation is unchanged, which is the entire
	// validity protocol of the L0 line-lookaside micro-caches in
	// internal/cpu (DESIGN.md §12). Set-granular rather than cache-granular
	// so a fill in one set does not mass-invalidate lookaside entries for
	// every other set.
	gens  []uint64
	stats Stats

	// obs, when set, receives one event per fill (and per eviction a fill
	// forces) — the cache-channel slice of the observation trace
	// (internal/obs). obsTag names the array in the events' annotation.
	obs    *obs.Recorder
	obsTag uint64
}

// Observation-annotation array tags (the Note payload's top bits name which
// cache recorded the event).
const (
	ObsTagL1I uint64 = 1
	ObsTagL1D uint64 = 2
	ObsTagL2  uint64 = 3
)

// New creates a cache. Sets must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.Sets&(cfg.Sets-1) != 0 {
		panic("cache: sets must be a power of two")
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		tagShift:  shift + log2(uint64(cfg.Sets)),
		setMask:   uint64(cfg.Sets - 1),
		tags:      make([]uint64, cfg.Sets*cfg.Ways),
		stamps:    make([]uint64, cfg.Sets*cfg.Ways),
		mru:       make([]int32, cfg.Sets),
		gens:      make([]uint64, cfg.Sets),
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// GenAt reports the content generation of addr's set: it advances on every
// fill, forced eviction, flush, and invalidation affecting that set, and on
// nothing else. L0 micro-cache entries record it at install time and are
// valid exactly while it is unchanged.
func (c *Cache) GenAt(addr uint64) uint64 {
	return c.gens[(addr>>c.lineShift)&c.setMask]
}

// LineShift reports log2(LineBytes) — the shift that maps an address to its
// line number (L0 installers key entries by it).
func (c *Cache) LineShift() uint { return c.lineShift }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), addr >> c.tagShift
}

// log2 returns the base-2 logarithm of a power of two.
func log2(u uint64) uint {
	n := uint(0)
	for u > 1 {
		u >>= 1
		n++
	}
	return n
}

// SetOf returns the set index addr maps to; the attack framework uses it to
// build prime+probe eviction sets.
func (c *Cache) SetOf(addr uint64) int {
	s, _ := c.index(addr)
	return s
}

// Lookup reports whether addr is present without changing any state (used by
// Delay-on-Miss to probe L1 before deciding whether a speculative load is
// safe).
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	tag1 := tag + 1
	if tags[c.mru[set]] == tag1 {
		return true
	}
	for _, t := range tags {
		if t == tag1 {
			return true
		}
	}
	return false
}

// Access looks up addr, filling on a miss (evicting the LRU way), and
// returns whether it hit. When updateLRU is false a hit leaves replacement
// state untouched — Perspective defers LRU updates for speculative accesses
// until the visibility point (§6.2); the caller re-invokes Touch at VP.
//
// The MRU-hint hit stays under the inlining budget; everything else — the
// full way scan, victim selection, the fill — is in accessScan.
func (c *Cache) Access(addr uint64, updateLRU bool) bool {
	c.clock++
	c.stats.Accesses++
	set := int((addr >> c.lineShift) & c.setMask)
	slot := set*c.cfg.Ways + int(c.mru[set])
	if c.tags[slot] == (addr>>c.tagShift)+1 {
		c.stats.Hits++
		if updateLRU {
			c.stamps[slot] = c.clock
		}
		return true
	}
	return c.accessScan(addr, set, updateLRU)
}

// accessScan is Access past the MRU hint: scan every way in index order,
// fill on a miss. Victim choice is unchanged from the struct-walk era: the
// first invalid way, else the minimum-stamp (least recently used) way.
func (c *Cache) accessScan(addr uint64, set int, updateLRU bool) bool {
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	tag1 := (addr >> c.tagShift) + 1
	victim := -1
	var victimStamp uint64
	hasInvalid := false
	for w, t := range tags {
		if t == tag1 {
			c.stats.Hits++
			if updateLRU {
				c.stamps[base+w] = c.clock
			}
			c.mru[set] = int32(w)
			return true
		}
		switch {
		case t == 0 && !hasInvalid:
			victim, hasInvalid = w, true
		case !hasInvalid && (victim == -1 || c.stamps[base+w] < victimStamp):
			victim, victimStamp = w, c.stamps[base+w]
		}
	}
	// Miss: fill. Even speculative fills happen on baseline hardware — this
	// is the transmission step of every PoC in internal/attack.
	c.stats.Fills++
	c.gens[set]++
	if c.obs != nil {
		c.noteFill(set, victim, tag1, c.tags[base+victim])
	}
	c.tags[base+victim] = tag1
	c.stamps[base+victim] = c.clock
	c.mru[set] = int32(victim)
	return false
}

// CommitHit re-applies a committed-path hit to the line in slot, bypassing
// the index computation and way scan. It is exactly the state transition of
// Access(addr, true) hitting that line — clock advance, access/hit counters,
// stamp update — and nothing else, so a caller that has *proved* the line is
// still in slot (an L0 entry whose generation matches GenAt) gets a
// byte-identical cache afterwards. The proof obligation is the caller's;
// perspective-lint's confine analyzer confines callers to the committed-path
// accessors in internal/cpu.
func (c *Cache) CommitHit(slot int32) {
	c.clock++
	c.stats.Accesses++
	c.stats.Hits++
	c.stamps[slot] = c.clock
}

// MRUSlot returns the dense slot index of addr's set's MRU way, and whether
// that way currently holds addr's line. Immediately after a committed Access
// of addr it does (hit and fill both set the hint), which is when the L0
// installers call it; the presence check guards the one exception, a
// next-line prefetch landing in the same set (only possible with Sets == 1).
func (c *Cache) MRUSlot(addr uint64) (int32, bool) {
	set := int((addr >> c.lineShift) & c.setMask)
	slot := int32(set*c.cfg.Ways) + c.mru[set]
	if c.tags[slot] == (addr>>c.tagShift)+1 {
		return slot, true
	}
	return 0, false
}

// SetObs attaches an observation recorder (nil detaches); tag names this
// array in recorded events. Off the hot path: Access only pays the nil check.
func (c *Cache) SetObs(r *obs.Recorder, tag uint64) {
	c.obs, c.obsTag = r, tag
}

// noteFill records a fill — and the eviction it forced, if the victim way
// held a valid line. Addr carries the line address (what a prime+probe or
// flush+reload observer resolves); the annotation packs array/set/way.
func (c *Cache) noteFill(set, victim int, newTag1, oldTag1 uint64) {
	note := c.obsTag<<40 | uint64(set)<<8 | uint64(victim)
	if oldTag1 != 0 {
		evicted := (oldTag1-1)<<c.tagShift | uint64(set)<<c.lineShift
		c.obs.Record(obs.Event{Kind: obs.KindEvict, Addr: evicted, Note: note})
	}
	filled := (newTag1-1)<<c.tagShift | uint64(set)<<c.lineShift
	c.obs.Record(obs.Event{Kind: obs.KindFill, Addr: filled, Note: note})
}

// Touch updates LRU for a line already present (visibility-point LRU update).
// It is a no-op if the line was evicted in the meantime.
func (c *Cache) Touch(addr uint64) {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	tag1 := tag + 1
	for w, t := range tags {
		if t == tag1 {
			c.clock++
			c.stamps[base+w] = c.clock
			return
		}
	}
}

// Flush invalidates the line containing addr if present (clflush).
func (c *Cache) Flush(addr uint64) {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == tag+1 {
			c.tags[base+w] = 0
			c.stats.Flushes++
			c.gens[set]++
			return
		}
	}
}

// InvalidateAll empties the cache (used to model the L1D flush mitigation
// comparison and to reset between experiments).
func (c *Cache) InvalidateAll() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.gens {
		c.gens[i]++
	}
}

// reset returns c to the state New built it in: every way invalid, clock,
// generations and counters zero, no recorder attached.
func (c *Cache) reset() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.mru)
	clear(c.gens)
	c.clock, c.stats = 0, Stats{}
	c.obs, c.obsTag = nil, 0
}

// StateDigest hashes the architecturally meaningful cache state — tags,
// stamps, and the LRU clock, FNV-1a word-wise — for differential suites
// pinning two caches byte-equal. The mru hint is deliberately excluded: it
// is a host-side shortcut that never changes what any operation returns.
func (c *Cache) StateDigest() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, t := range c.tags {
		h = (h ^ t) * prime
	}
	for _, s := range c.stamps {
		h = (h ^ s) * prime
	}
	return (h ^ c.clock) * prime
}

// Hierarchy is the paper's two-core cache system collapsed to the view of a
// single simulated hardware thread: per-core L1I/L1D in front of a shared
// L2, with DRAM behind. Latencies are round-trip cycles per Table 7.1.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache

	L1Lat  int
	L2Lat  int
	MemLat int

	// NextLinePrefetch enables the simple L1 hardware prefetcher of Table
	// 7.1 (one per L1): on an L1 miss, the sequentially next line is filled
	// too. Covert-channel probe arrays use page-sized strides precisely so
	// such prefetchers cannot mask the signal.
	NextLinePrefetch bool
}

// Table 7.1 geometry.
var (
	DefaultL1I = Config{Sets: 128, Ways: 4, LineBytes: 64}   // 32 KB
	DefaultL1D = Config{Sets: 64, Ways: 8, LineBytes: 64}    // 32 KB
	DefaultL2  = Config{Sets: 2048, Ways: 16, LineBytes: 64} // 2 MB
)

// hierarchyPool holds released Table 7.1 hierarchies, already reset to
// their constructor state. It saves only the host allocation (over half a
// megabyte of L2 metadata per machine): a recycled hierarchy is
// indistinguishable from a new one.
var hierarchyPool sync.Pool

// NewDefaultHierarchy builds the Table 7.1 hierarchy: 32KB L1I (4-way), 32KB
// L1D (8-way), 2MB L2 slice (16-way), 2/8-cycle round trips and 100 cycles
// of DRAM beyond L2 (50ns at 2GHz). It reuses a released hierarchy when one
// is pooled.
func NewDefaultHierarchy() *Hierarchy {
	if h, ok := hierarchyPool.Get().(*Hierarchy); ok {
		return h
	}
	h := table71(New(DefaultL1I), New(DefaultL1D), New(DefaultL2))
	return &h
}

// table71 assembles the three arrays with the Table 7.1 timing.
func table71(l1i, l1d, l2 *Cache) Hierarchy {
	return Hierarchy{L1I: l1i, L1D: l1d, L2: l2, L1Lat: 2, L2Lat: 8, MemLat: 100, NextLinePrefetch: true}
}

// Release empties h and pools it for a later NewDefaultHierarchy, which
// hands it out in exactly its constructor state. Only Table 7.1 geometry is
// pooled. The caller must not use h afterwards: another machine will.
func (h *Hierarchy) Release() {
	if h.L1I.cfg != DefaultL1I || h.L1D.cfg != DefaultL1D || h.L2.cfg != DefaultL2 {
		return
	}
	h.L1I.reset()
	h.L1D.reset()
	h.L2.reset()
	*h = table71(h.L1I, h.L1D, h.L2)
	hierarchyPool.Put(h)
}

// AttachObs wires one observation recorder into all three arrays (nil
// detaches). Every fill and forced eviction anywhere in the hierarchy then
// lands in the trace, tagged with the array it happened in.
func (h *Hierarchy) AttachObs(r *obs.Recorder) {
	h.L1I.SetObs(r, ObsTagL1I)
	h.L1D.SetObs(r, ObsTagL1D)
	h.L2.SetObs(r, ObsTagL2)
}

// AccessData performs a data access at physical address pa and returns its
// latency and the level that satisfied it. updateLRU=false marks a
// speculative access whose replacement update is deferred.
func (h *Hierarchy) AccessData(pa uint64, updateLRU bool) (lat int, lvl Level) {
	if h.L1D.Access(pa, updateLRU) {
		return h.L1Lat, LevelL1
	}
	if h.NextLinePrefetch {
		h.L1D.Access(pa+uint64(h.L1D.cfg.LineBytes), false)
	}
	if h.L2.Access(pa, updateLRU) {
		return h.L2Lat, LevelL2
	}
	return h.L2Lat + h.MemLat, LevelMem
}

// AccessInst performs an instruction fetch at pa.
func (h *Hierarchy) AccessInst(pa uint64) (lat int, lvl Level) {
	if h.L1I.Access(pa, true) {
		return h.L1Lat, LevelL1
	}
	if h.NextLinePrefetch {
		h.L1I.Access(pa+uint64(h.L1I.cfg.LineBytes), false)
	}
	if h.L2.Access(pa, true) {
		return h.L2Lat, LevelL2
	}
	return h.L2Lat + h.MemLat, LevelMem
}

// TouchData applies the deferred visibility-point LRU update for pa.
func (h *Hierarchy) TouchData(pa uint64) {
	h.L1D.Touch(pa)
	h.L2.Touch(pa)
}

// FlushData evicts pa from the entire data hierarchy (clflush), the setup
// step of flush+reload.
func (h *Hierarchy) FlushData(pa uint64) {
	h.L1D.Flush(pa)
	h.L2.Flush(pa)
}

// ProbeLatency times a data load without disturbing replacement state more
// than a real timed load would; the attacker's reload step. It is exactly
// AccessData with LRU updates (the attacker's load is architectural).
func (h *Hierarchy) ProbeLatency(pa uint64) int {
	lat, _ := h.AccessData(pa, true)
	return lat
}

// StateDigest folds the three arrays' digests (differential suites compare
// whole hierarchies with it).
func (h *Hierarchy) StateDigest() uint64 {
	const prime = 1099511628211
	d := h.L1I.StateDigest()
	d = (d ^ h.L1D.StateDigest()) * prime
	return (d ^ h.L2.StateDigest()) * prime
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1I %dKB/%d-way, L1D %dKB/%d-way, L2 %dKB/%d-way, lat %d/%d/+%d",
		h.L1I.cfg.Bytes()/1024, h.L1I.cfg.Ways,
		h.L1D.cfg.Bytes()/1024, h.L1D.cfg.Ways,
		h.L2.cfg.Bytes()/1024, h.L2.cfg.Ways,
		h.L1Lat, h.L2Lat, h.MemLat)
}
