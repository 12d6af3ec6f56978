package loadgen

import (
	"math"
	"testing"
)

func streamCfg(seed int64) StreamConfig {
	return StreamConfig{
		Seed:       seed,
		Kind:       Poisson,
		MeanGap:    1000,
		Conns:      8,
		KeepAliveP: 0.9,
		Keys:       4096,
		ZipfS:      1.1,
	}
}

// Two streams from the same config must produce identical request
// sequences — the byte-identity of -exp taillats rests on this.
func TestStreamDeterminism(t *testing.T) {
	a := NewStream(streamCfg(42))
	b := NewStream(streamCfg(42))
	var ra, rb Req
	for i := 0; i < 10000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if ra != rb {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if a.Generated() != 10000 {
		t.Fatalf("Generated() = %d, want 10000", a.Generated())
	}
}

// Different seeds must produce different sequences (the per-shard seeds
// would otherwise collapse every shard onto one stream).
func TestStreamSeedSensitivity(t *testing.T) {
	a := NewStream(streamCfg(1))
	b := NewStream(streamCfg(2))
	var ra, rb Req
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if ra.Arrival == rb.Arrival {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("seeds 1 and 2 share %d/1000 arrival times", same)
	}
}

func TestStreamArrivalsMonotone(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Fixed} {
		s := NewStream(StreamConfig{Seed: 7, Kind: kind, MeanGap: 100, Conns: 4})
		var r Req
		prev := -1.0
		for i := 0; i < 5000; i++ {
			s.Next(&r)
			if r.Arrival <= prev {
				t.Fatalf("%v: arrival %d not increasing: %g after %g", kind, i, r.Arrival, prev)
			}
			prev = r.Arrival
		}
	}
}

// Poisson gaps must average MeanGap; fixed-rate gaps must equal it exactly.
func TestStreamMeanGap(t *testing.T) {
	const n = 200000
	for _, kind := range []ArrivalKind{Poisson, Fixed} {
		s := NewStream(StreamConfig{Seed: 11, Kind: kind, MeanGap: 500, Conns: 1})
		var r Req
		for i := 0; i < n; i++ {
			s.Next(&r)
		}
		mean := r.Arrival / n
		if math.Abs(mean-500)/500 > 0.02 {
			t.Fatalf("%v: mean gap %.2f, want 500±2%%", kind, mean)
		}
	}
}

func TestStreamPhaseOffset(t *testing.T) {
	base := StreamConfig{Seed: 3, Kind: Fixed, MeanGap: 100, Conns: 1}
	shifted := base
	shifted.Phase = 25
	a, b := NewStream(base), NewStream(shifted)
	var ra, rb Req
	a.Next(&ra)
	b.Next(&rb)
	if rb.Arrival-ra.Arrival != 25 {
		t.Fatalf("phase offset: got %g and %g, want gap 25", ra.Arrival, rb.Arrival)
	}
}

// The keep-alive mix must hit its configured probability, and a stream with
// KeepAliveP=1 must never churn.
func TestStreamChurnMix(t *testing.T) {
	const n = 100000
	cfg := streamCfg(5)
	cfg.KeepAliveP = 0.8
	s := NewStream(cfg)
	var r Req
	churns := 0
	for i := 0; i < n; i++ {
		s.Next(&r)
		if r.Churn {
			churns++
		}
	}
	frac := float64(churns) / n
	if math.Abs(frac-0.2) > 0.01 {
		t.Fatalf("churn fraction %.4f, want 0.2±0.01", frac)
	}

	cfg.KeepAliveP = 1
	s = NewStream(cfg)
	for i := 0; i < 1000; i++ {
		s.Next(&r)
		if r.Churn {
			t.Fatal("KeepAliveP=1 stream produced a churn request")
		}
	}
}

// The Zipf key distribution must be heavy-headed: the most popular key far
// outweighs the uniform share, and popularity decays with rank.
func TestZipfShape(t *testing.T) {
	const n = 200000
	cfg := streamCfg(9)
	cfg.Keys = 1024
	cfg.ZipfS = 1.1
	s := NewStream(cfg)
	counts := make(map[uint64]int)
	var r Req
	for i := 0; i < n; i++ {
		s.Next(&r)
		if r.Key >= cfg.Keys {
			t.Fatalf("key %d outside universe %d", r.Key, cfg.Keys)
		}
		counts[r.Key]++
	}
	uniform := float64(n) / float64(cfg.Keys)
	if float64(counts[0]) < 20*uniform {
		t.Fatalf("hottest key got %d hits, want ≥ %0.f (20× uniform share)", counts[0], 20*uniform)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("popularity not decaying with rank: key0=%d key1=%d key10=%d",
			counts[0], counts[1], counts[10])
	}
}

func TestStreamNoKeys(t *testing.T) {
	cfg := streamCfg(1)
	cfg.Keys = 0
	s := NewStream(cfg)
	var r Req
	for i := 0; i < 100; i++ {
		s.Next(&r)
		if r.Key != 0 {
			t.Fatalf("keyless stream produced key %d", r.Key)
		}
	}
}

func TestParseArrival(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ArrivalKind
	}{{"poisson", Poisson}, {"fixed", Fixed}} {
		got, err := ParseArrival(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseArrival(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round-trip: %q != %q", got.String(), tc.in)
		}
	}
	if _, err := ParseArrival("burst"); err == nil {
		t.Fatal("ParseArrival accepted unknown law")
	}
}

// replayOne replays n requests of s against a single reservoir: the k=1
// lockstep replay.
func replayOne(t testing.TB, s *Stream, res *Reservoir, n uint64, d *Digest) ReplayStats {
	t.Helper()
	st, err := Replay(s, []*Reservoir{res}, n, []*Digest{d})
	if err != nil {
		t.Fatal(err)
	}
	return st[0]
}

// constReservoir is a one-entry reservoir: every request costs c cycles.
func constReservoir(c float64) *Reservoir {
	r := NewReservoir(1)
	r.AddKeep(c)
	return r
}

// mixedStream never queues (the gap dwarfs every service time here) and
// mixes keep-alive with churn requests, so each request's service time is
// its sojourn time and both strata are asked for.
func mixedStream() *Stream {
	return NewStream(StreamConfig{Seed: 3, Kind: Fixed, MeanGap: 1e6, Conns: 1, KeepAliveP: 0.5})
}

func TestReservoirStrata(t *testing.T) {
	r := NewReservoir(1)
	r.AddKeep(100)
	r.AddChurn(900)
	s := mixedStream()
	var keeps, churns int
	for i := 0; i < 100; i++ {
		var d Digest
		st := replayOne(t, s, r, 1, &d)
		want := 100.0
		if st.Churns == 1 {
			want = 900
			churns++
		} else {
			keeps++
		}
		if st.BusyCycles != want {
			t.Fatalf("request %d (churn=%v) served in %g cycles, want %g", i, st.Churns == 1, st.BusyCycles, want)
		}
	}
	if keeps == 0 || churns == 0 {
		t.Fatalf("stream drew %d keep-alive and %d churn requests, want both", keeps, churns)
	}
}

func TestReservoirFallback(t *testing.T) {
	keepOnly := NewReservoir(1)
	keepOnly.AddKeep(50)
	churnOnly := NewReservoir(1)
	churnOnly.AddChurn(70)
	for _, tc := range []struct {
		name string
		res  *Reservoir
		want float64
	}{
		{"empty churn stratum falls back to keep", keepOnly, 50},
		{"empty keep stratum falls back to churn", churnOnly, 70},
		{"empty reservoir serves in 0 cycles", NewReservoir(1), 0},
	} {
		const n = 1000
		var d Digest
		st := replayOne(t, mixedStream(), tc.res, n, &d)
		if st.Churns == 0 || st.Churns == n {
			t.Fatalf("%s: %d of %d requests churned, want a mix", tc.name, st.Churns, n)
		}
		if st.BusyCycles != tc.want*n {
			t.Fatalf("%s: busy %g cycles, want %g", tc.name, st.BusyCycles, tc.want*n)
		}
	}
}

// At low utilization a fixed-rate stream never queues: every sojourn time
// equals the service time.
func TestReplayNoQueueing(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 1, Kind: Fixed, MeanGap: 1000, Conns: 1, KeepAliveP: 1})
	var d Digest
	st := replayOne(t, s, constReservoir(100), 10000, &d)
	if st.Requests != 10000 || d.Count() != 10000 {
		t.Fatalf("requests %d / digest count %d, want 10000", st.Requests, d.Count())
	}
	if p := d.Quantile(0.999); p < 100 || p > 104 {
		t.Fatalf("p999 = %g, want ≈100 (no queueing at ρ=0.1)", p)
	}
	if u := st.Utilization(); math.Abs(u-0.1) > 0.01 {
		t.Fatalf("utilization %.3f, want ≈0.1", u)
	}
}

// Overload must build an unbounded queue: late requests wait far longer
// than the service time, and the tail dwarfs the median.
func TestReplayOverloadQueues(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 1, Kind: Fixed, MeanGap: 100, Conns: 1, KeepAliveP: 1})
	var d Digest
	replayOne(t, s, constReservoir(200), 10000, &d)
	// At ρ=2 the backlog grows by 100 cycles per request, so even the
	// median sojourn dwarfs the 200-cycle service time.
	if p50, p99 := d.Quantile(0.5), d.Quantile(0.99); p50 < 100*200 || p99 < 1.8*p50 {
		t.Fatalf("overload tail did not build: p50=%g p99=%g", p50, p99)
	}
}

// A Poisson/M-service queue's p99 must exceed its mean substantially —
// the nonlinearity the experiment exists to expose.
func TestReplayTailAmplification(t *testing.T) {
	s := NewStream(streamCfg(13))
	res := NewReservoir(13)
	// Bimodal service: mostly cheap, occasionally 10×.
	for i := 0; i < 95; i++ {
		res.AddKeep(300)
	}
	for i := 0; i < 5; i++ {
		res.AddKeep(3000)
	}
	res.AddChurn(4000)
	var d Digest
	st := replayOne(t, s, res, 200000, &d)
	if st.Churns == 0 {
		t.Fatal("no churn requests in a KeepAliveP=0.9 stream")
	}
	if d.Quantile(0.99) < 2*d.Mean() {
		t.Fatalf("p99 %g not amplified over mean %g", d.Quantile(0.99), d.Mean())
	}
}

// Replay is deterministic end to end: same stream config and reservoir
// seed, same digest.
func TestReplayDeterminism(t *testing.T) {
	run := func() (Digest, ReplayStats) {
		s := NewStream(streamCfg(21))
		res := NewReservoir(77)
		for i := 0; i < 64; i++ {
			res.AddKeep(float64(200 + 13*i))
			res.AddChurn(float64(900 + 31*i))
		}
		var d Digest
		st := replayOne(t, s, res, 50000, &d)
		return d, st
	}
	d1, st1 := run()
	d2, st2 := run()
	if d1 != d2 {
		t.Fatal("replay digests diverged across identical runs")
	}
	if st1 != st2 {
		t.Fatalf("replay stats diverged: %+v vs %+v", st1, st2)
	}
}
