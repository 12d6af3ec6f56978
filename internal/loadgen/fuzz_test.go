package loadgen

import (
	"math/rand"
	"testing"
)

// FuzzArrivalProcess drives randomized stream configurations through the
// generator and replay engine and checks the invariants every taillats cell
// depends on: arrivals strictly increase, equal configs replay identically,
// keys stay inside the universe, and sharded digests merge to the
// whole-stream digest.
func FuzzArrivalProcess(f *testing.F) {
	f.Add(int64(1), int64(0), 1000.0, 8, 0.9, uint64(4096), uint64(500))
	f.Add(int64(42), int64(1), 250.0, 1, 1.0, uint64(0), uint64(300))
	f.Add(int64(-7), int64(0), 1.5, 64, 0.0, uint64(2), uint64(1000))
	f.Add(int64(99), int64(1), 1e9, 3, 0.5, uint64(1), uint64(100))
	f.Add(int64(0), int64(0), 0.0, 0, -1.0, uint64(1<<40), uint64(200))
	f.Fuzz(func(t *testing.T, seed, kind int64, meanGap float64, conns int, keepP float64, keys, n uint64) {
		if n > 5000 {
			n = 5000
		}
		if meanGap != meanGap || meanGap > 1e15 { // NaN / absurd gaps
			t.Skip()
		}
		if conns > 1<<16 {
			conns = 1 << 16
		}
		cfg := StreamConfig{
			Seed:       seed,
			Kind:       ArrivalKind(kind & 1),
			MeanGap:    meanGap,
			Conns:      conns,
			KeepAliveP: keepP,
			Keys:       keys,
			ZipfS:      1.1,
		}

		res := NewReservoir(seed ^ 0x5eed)
		res.AddKeep(200)
		res.AddKeep(450)
		res.AddChurn(1600)

		run := func() (Digest, ReplayStats, float64) {
			s := NewStream(cfg)
			var d Digest
			st := replayOne(t, s, res, n, &d)
			// Re-walk a fresh stream to re-check per-request invariants.
			chk := NewStream(cfg)
			var r Req
			prev := -1.0
			for i := uint64(0); i < n; i++ {
				chk.Next(&r)
				if r.Arrival <= prev {
					t.Fatalf("arrival %d not increasing: %g after %g", i, r.Arrival, prev)
				}
				prev = r.Arrival
				if cfg.Keys > 1 && r.Key >= cfg.Keys {
					t.Fatalf("key %d outside universe %d", r.Key, cfg.Keys)
				}
				if cfg.Keys <= 1 && r.Key != 0 {
					t.Fatalf("keyless stream produced key %d", r.Key)
				}
				if r.Conn < 0 || (cfg.Conns > 0 && r.Conn >= cfg.Conns) {
					t.Fatalf("conn %d outside pool %d", r.Conn, cfg.Conns)
				}
			}
			return d, st, prev
		}
		d1, st1, last1 := run()
		d2, st2, last2 := run()
		if d1 != d2 || st1 != st2 || last1 != last2 {
			t.Fatal("identical configs produced different replays")
		}
		if d1.Count() != n {
			t.Fatalf("digest count %d, want %d", d1.Count(), n)
		}

		// Sharded digests (round-robin split of one recorded stream) must
		// merge back to the whole-stream digest.
		s := NewStream(cfg)
		var whole Digest
		shards := make([]Digest, 4)
		var r Req
		for i := uint64(0); i < n; i++ {
			s.Next(&r)
			whole.Record(r.Arrival)
			shards[i%4].Record(r.Arrival)
		}
		var merged Digest
		for i := range shards {
			merged.Merge(&shards[i])
		}
		// Bucket counts are integer and order-exact; the float sum is only
		// reassociated, so compare the histogram, not the struct.
		if merged.buckets != whole.buckets || merged.count != whole.count {
			t.Fatal("sharded digest merge differs from whole-stream digest")
		}
	})
}

// FuzzLockstepReplay holds the lockstep replay to its contract: one Replay
// over k reservoirs that share a seed and stratum sizes gives every
// reservoir the digest and stats a replay of it alone on a fresh stream
// gives, and both equal refReplay. Reservoirs that differ in seed or in a
// stratum size are refused before any digest or the stream is touched.
func FuzzLockstepReplay(f *testing.F) {
	f.Add(int64(1), int64(0), 1000.0, 0.9, uint64(4096), uint8(6), uint8(5), uint8(3), int64(11), uint16(2000), uint8(0))
	f.Add(int64(2), int64(1), 400.0, 0.5, uint64(0), uint8(3), uint8(0), uint8(4), int64(12), uint16(1500), uint8(1))     // empty keep stratum
	f.Add(int64(3), int64(0), 800.0, 0.7, uint64(16384), uint8(4), uint8(6), uint8(0), int64(13), uint16(1500), uint8(2)) // empty churn stratum
	f.Add(int64(4), int64(0), 300.0, 0.5, uint64(2), uint8(2), uint8(0), uint8(0), int64(14), uint16(500), uint8(3))      // both empty
	f.Add(int64(5), int64(1), 50.0, 1.0, uint64(0), uint8(0), uint8(8), uint8(8), int64(15), uint16(3000), uint8(4))      // k=1, overloaded
	f.Add(int64(-6), int64(0), 1e9, 0.0, uint64(1), uint8(5), uint8(1), uint8(1), int64(-16), uint16(0), uint8(5))        // n=0, all churn
	f.Fuzz(func(t *testing.T, seed, kind int64, meanGap, keepP float64, keys uint64, k, nKeep, nChurn uint8, valSeed int64, n uint16, mismatch uint8) {
		if meanGap != meanGap || meanGap > 1e15 { // NaN / absurd gaps
			t.Skip()
		}
		cfg := StreamConfig{
			Seed:       seed,
			Kind:       ArrivalKind(kind & 1),
			MeanGap:    meanGap,
			Conns:      4,
			KeepAliveP: keepP,
			Keys:       keys,
			ZipfS:      1.1,
		}
		reqs := uint64(n % 5001)
		// Same seed and stratum sizes, different values; a few negative
		// values exercise the clamp to 0.
		vals := rand.New(rand.NewSource(valSeed))
		res := make([]*Reservoir, 1+int(k%7))
		for i := range res {
			res[i] = NewReservoir(seed ^ 0x5eed)
			for j := 0; j < int(nKeep%9); j++ {
				res[i].AddKeep(vals.Float64()*6000 - 500)
			}
			for j := 0; j < int(nChurn%9); j++ {
				res[i].AddChurn(vals.Float64()*6000 - 500)
			}
		}
		ds := make([]*Digest, len(res))
		for i := range ds {
			ds[i] = new(Digest)
		}
		sts, err := Replay(NewStream(cfg), res, reqs, ds)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			var d Digest
			st := replayOne(t, NewStream(cfg), r, reqs, &d)
			if *ds[i] != d || sts[i] != st {
				t.Fatalf("reservoir %d of %d: lockstep replay %+v differs from its own replay %+v", i, len(res), sts[i], st)
			}
			if rd, rst := refReplay(NewStream(cfg), r, reqs); rd != d || rst != st {
				t.Fatalf("reservoir %d: replay %+v differs from the reference %+v", i, st, rst)
			}
		}

		// Insert a reservoir that differs in seed, keep size or churn size.
		odd := NewReservoir(seed ^ 0x5eed)
		odd.keep = append(odd.keep, res[0].keep...)
		odd.churn = append(odd.churn, res[0].churn...)
		switch mismatch % 3 {
		case 0:
			odd.seed++
		case 1:
			odd.AddKeep(1)
		case 2:
			odd.AddChurn(1)
		}
		at := int(mismatch) % (len(res) + 1)
		bad := append(append(append([]*Reservoir{}, res[:at]...), odd), res[at:]...)
		badDs := make([]*Digest, len(bad))
		var before []Digest
		for i := range badDs {
			badDs[i] = new(Digest)
			badDs[i].Record(float64(i))
			before = append(before, *badDs[i])
		}
		s := NewStream(cfg)
		if _, err := Replay(s, bad, reqs+1, badDs); err == nil {
			t.Fatalf("mismatched reservoir at %d (kind %d) accepted", at, mismatch%3)
		}
		if _, err := Replay(s, res, reqs+1, badDs[:len(res)-1]); err == nil {
			t.Fatalf("%d reservoirs with %d digests accepted", len(res), len(res)-1)
		}
		if _, err := Replay(s, nil, reqs+1, nil); err == nil {
			t.Fatal("replay without reservoirs accepted")
		}
		for i := range badDs {
			if *badDs[i] != before[i] {
				t.Fatalf("refused replay touched digest %d", i)
			}
		}
		if s.Generated() != 0 {
			t.Fatalf("refused replay drew %d requests", s.Generated())
		}
	})
}

// refReplay is the single-queue replay the lockstep engine reproduces: the
// reservoir's own PRNG draws each request's sample from its stratum, an
// empty stratum falls back to the other, and both empty serve in 0 cycles.
func refReplay(s *Stream, res *Reservoir, n uint64) (Digest, ReplayStats) {
	rng := rand.New(rand.NewSource(res.seed))
	var d Digest
	var st ReplayStats
	var busyUntil float64
	var r Req
	for i := uint64(0); i < n; i++ {
		s.Next(&r)
		pool := res.keep
		if r.Churn && len(res.churn) > 0 {
			pool = res.churn
		}
		if len(pool) == 0 {
			pool = res.churn
		}
		var sv float64
		if len(pool) > 0 {
			sv = pool[rng.Intn(len(pool))]
		}
		if sv < 0 {
			sv = 0
		}
		start := r.Arrival
		if busyUntil > start {
			start = busyUntil
		}
		busyUntil = start + sv
		d.Record(busyUntil - r.Arrival)
		st.BusyCycles += sv
		if r.Churn {
			st.Churns++
		}
	}
	st.Requests = n
	st.SpanCycles = busyUntil
	return d, st
}
