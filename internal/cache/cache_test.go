package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func small() *Cache { return New(Config{Sets: 4, Ways: 2, LineBytes: 64}) }

func TestHitAfterFill(t *testing.T) {
	c := small()
	if c.Access(0x1000, true) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, true) {
		t.Error("second access missed")
	}
	// Same line, different byte.
	if !c.Access(0x1030, true) {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040, true) {
		t.Error("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets * 64B lines: addresses 256B apart share a set
	const stride = 4 * 64
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a, true)
	c.Access(b, true)
	c.Access(a, true) // a is now MRU
	c.Access(d, true) // evicts b (LRU)
	if !c.Lookup(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Lookup(b) {
		t.Error("b survived despite being LRU")
	}
	if !c.Lookup(d) {
		t.Error("d not filled")
	}
}

// A speculative hit (updateLRU=false) must not refresh the line's
// replacement age — the paper's rule that LRU bits update only at the
// visibility point (§6.2).
func TestSpeculativeHitDoesNotUpdateLRU(t *testing.T) {
	c := small()
	const stride = 4 * 64
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a, true)
	c.Access(b, true)
	c.Access(a, false) // speculative hit: a stays older than b
	c.Access(d, true)  // should evict a, not b
	if c.Lookup(a) {
		t.Error("a survived: speculative hit updated LRU")
	}
	if !c.Lookup(b) {
		t.Error("b evicted: speculative hit updated LRU")
	}
}

func TestTouchAppliesDeferredLRU(t *testing.T) {
	c := small()
	const stride = 4 * 64
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a, true)
	c.Access(b, true)
	c.Access(a, false)
	c.Touch(a) // visibility point reached: now a is MRU
	c.Access(d, true)
	if !c.Lookup(a) {
		t.Error("a evicted despite Touch")
	}
	if c.Lookup(b) {
		t.Error("b survived despite being LRU after Touch(a)")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0x2000, true)
	c.Flush(0x2000)
	if c.Lookup(0x2000) {
		t.Error("line present after flush")
	}
	// Flushing an absent line is a no-op.
	c.Flush(0x9000)
	if got := c.Stats().Flushes; got != 1 {
		t.Errorf("flush count = %d, want 1", got)
	}
}

func TestLookupIsSideEffectFree(t *testing.T) {
	c := small()
	before := c.Stats()
	c.Lookup(0x5000)
	if c.Stats() != before {
		t.Error("Lookup changed stats")
	}
	if c.Lookup(0x5000) {
		t.Error("Lookup filled the line")
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := small()
	c.Access(0x100, true)
	c.Access(0x100, true)
	c.Access(0x100, true)
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %f", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate not 0")
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
	if !c.Lookup(0x100) {
		t.Error("ResetStats dropped contents")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small()
	c.Access(0x100, true)
	c.Access(0x200, true)
	c.InvalidateAll()
	if c.Lookup(0x100) || c.Lookup(0x200) {
		t.Error("lines survive InvalidateAll")
	}
}

// Property: a line is always present immediately after Access, regardless of
// access history.
func TestAccessThenPresent(t *testing.T) {
	c := New(Config{Sets: 8, Ways: 2, LineBytes: 64})
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a), true)
			if !c.Lookup(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of distinct resident lines never exceeds capacity.
func TestCapacityInvariant(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, LineBytes: 64}
	c := New(cfg)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.Access(uint64(a), true)
		}
		resident := 0
		for _, tag := range c.tags {
			if tag != 0 {
				resident++
			}
		}
		return resident <= cfg.Lines()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetOfMapsSameLineSameSet(t *testing.T) {
	c := small()
	if c.SetOf(0x1000) != c.SetOf(0x103f) {
		t.Error("same line, different sets")
	}
	if c.SetOf(0x1000) == c.SetOf(0x1040) {
		t.Error("adjacent lines in same set for 4-set cache")
	}
	// addresses one set-stride apart map to the same set
	if c.SetOf(0x1000) != c.SetOf(0x1000+4*64) {
		t.Error("stride aliasing broken")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewDefaultHierarchy()
	h.NextLinePrefetch = false
	lat, lvl := h.AccessData(0x123456, true)
	if lvl != LevelMem || lat != h.L2Lat+h.MemLat {
		t.Errorf("cold access: lat=%d lvl=%v", lat, lvl)
	}
	lat, lvl = h.AccessData(0x123456, true)
	if lvl != LevelL1 || lat != h.L1Lat {
		t.Errorf("warm access: lat=%d lvl=%v", lat, lvl)
	}
	// Evict from L1 only: flush L1D, keep L2.
	h.L1D.Flush(0x123456)
	lat, lvl = h.AccessData(0x123456, true)
	if lvl != LevelL2 || lat != h.L2Lat {
		t.Errorf("L2 access: lat=%d lvl=%v", lat, lvl)
	}
}

// Flush+reload end to end: after FlushData a probe is slow; after the victim
// touches the line the probe is fast. This is the attacker's receiver.
func TestFlushReloadChannel(t *testing.T) {
	h := NewDefaultHierarchy()
	secretLine := uint64(42 * 4096)
	h.AccessData(secretLine, true)
	h.FlushData(secretLine)
	if lat := h.ProbeLatency(secretLine); lat <= h.L1Lat {
		t.Errorf("flushed line probed fast (%d cycles)", lat)
	}
	if lat := h.ProbeLatency(secretLine); lat != h.L1Lat {
		t.Errorf("reloaded line probed slow (%d cycles)", lat)
	}
}

func TestPrefetcherFillsNextLine(t *testing.T) {
	h := NewDefaultHierarchy()
	h.AccessData(0x40000, true)
	if !h.L1D.Lookup(0x40040) {
		t.Error("next line not prefetched")
	}
	// Page-stride probes are not masked by the next-line prefetcher.
	if h.L1D.Lookup(0x40000 + 4096) {
		t.Error("prefetcher reached across pages")
	}
}

func TestInstPath(t *testing.T) {
	h := NewDefaultHierarchy()
	h.NextLinePrefetch = false
	lat, _ := h.AccessInst(0x7000)
	if lat != h.L2Lat+h.MemLat {
		t.Errorf("cold fetch lat = %d", lat)
	}
	lat, _ = h.AccessInst(0x7000)
	if lat != h.L1Lat {
		t.Errorf("warm fetch lat = %d", lat)
	}
}

func TestDefaultGeometryMatchesTable71(t *testing.T) {
	if DefaultL1I.Bytes() != 32*1024 {
		t.Errorf("L1I = %d bytes", DefaultL1I.Bytes())
	}
	if DefaultL1D.Bytes() != 32*1024 || DefaultL1D.Ways != 8 {
		t.Errorf("L1D = %d bytes, %d ways", DefaultL1D.Bytes(), DefaultL1D.Ways)
	}
	if DefaultL2.Bytes() != 2*1024*1024 || DefaultL2.Ways != 16 {
		t.Errorf("L2 = %d bytes, %d ways", DefaultL2.Bytes(), DefaultL2.Ways)
	}
	h := NewDefaultHierarchy()
	if h.L1Lat != 2 || h.L2Lat != 8 {
		t.Errorf("latencies %d/%d", h.L1Lat, h.L2Lat)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 0, Ways: 1, LineBytes: 64},
		{Sets: 3, Ways: 1, LineBytes: 64},
		{Sets: 4, Ways: 1, LineBytes: 60},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// assertConstructorState fails unless h equals a new Table 7.1 hierarchy in
// every observable: state digest, counters, per-set generations, latencies,
// prefetcher, and no recorder attached.
func assertConstructorState(t *testing.T, h *Hierarchy) {
	t.Helper()
	want := &Hierarchy{L1I: New(DefaultL1I), L1D: New(DefaultL1D), L2: New(DefaultL2),
		L1Lat: 2, L2Lat: 8, MemLat: 100, NextLinePrefetch: true}
	if h.StateDigest() != want.StateDigest() {
		t.Errorf("StateDigest = %#x, want %#x", h.StateDigest(), want.StateDigest())
	}
	if h.L1Lat != want.L1Lat || h.L2Lat != want.L2Lat || h.MemLat != want.MemLat || !h.NextLinePrefetch {
		t.Errorf("timing %d/%d/%d prefetch %v, want 2/8/100 true", h.L1Lat, h.L2Lat, h.MemLat, h.NextLinePrefetch)
	}
	for i, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		if c.Stats() != (Stats{}) {
			t.Errorf("array %d: stats %+v, want zero", i, c.Stats())
		}
		if c.obs != nil || c.obsTag != 0 {
			t.Errorf("array %d: recorder still attached", i)
		}
		for s := 0; s < c.cfg.Sets; s++ {
			if g := c.GenAt(uint64(s) << c.lineShift); g != 0 {
				t.Fatalf("array %d set %d: generation %d, want 0", i, s, g)
			}
		}
	}
}

// TestHierarchyReleaseRestoresConstructorState dirties a hierarchy through
// every state-changing path, releases it, and checks that both it and
// whatever NewDefaultHierarchy hands out next are in constructor state.
func TestHierarchyReleaseRestoresConstructorState(t *testing.T) {
	h := NewDefaultHierarchy()
	rec := obs.NewRecorder(64)
	h.AttachObs(rec)
	h.L1Lat, h.MemLat, h.NextLinePrefetch = 5, 300, false
	for pa := uint64(0); pa < 1<<22; pa += 4160 {
		h.AccessData(pa, pa%3 == 0)
		h.AccessInst(pa + 64)
		h.TouchData(pa)
	}
	h.AccessData(0x40, true)
	h.FlushData(0x40)
	h.L1I.InvalidateAll()
	if rec.Len() == 0 || h.L2.Stats().Fills == 0 || h.L1D.Stats().Flushes == 0 {
		t.Fatalf("hierarchy not dirtied: %d events, %+v", rec.Len(), h.L2.Stats())
	}
	h.Release()
	assertConstructorState(t, h)
	assertConstructorState(t, NewDefaultHierarchy())
}

// TestHierarchyReleaseSkipsOtherGeometry checks that a hierarchy built with
// a non-Table-7.1 array is neither reset nor handed out again.
func TestHierarchyReleaseSkipsOtherGeometry(t *testing.T) {
	odd := &Hierarchy{L1I: New(DefaultL1I), L1D: New(DefaultL1D),
		L2: New(Config{Sets: 4, Ways: 2, LineBytes: 64}), L1Lat: 2, L2Lat: 8, MemLat: 100}
	odd.AccessData(0x1000, true)
	before := odd.StateDigest()
	odd.Release()
	if odd.StateDigest() != before {
		t.Fatalf("Release reset a non-default hierarchy")
	}
	for i := 0; i < 4; i++ {
		if h := NewDefaultHierarchy(); h == odd || h.L2.Config() != DefaultL2 {
			t.Fatalf("NewDefaultHierarchy handed out a non-default hierarchy")
		}
	}
}
