// Package loadgen is the open-loop traffic engine behind `-exp taillats`.
// It generates deterministic request streams — a seeded arrival process
// (Poisson or fixed-rate), a keep-alive/connection-churn mix, and a Zipf
// key-popularity distribution — and replays each one through single-server
// queueing recurrences, one per service-time reservoir, whose per-request
// sojourn times stream into online latency digests (see digest.go) instead
// of materialized slices.
//
// Open loop is the load model the paper's §7 closed-loop throughput runs
// cannot express: clients issue requests on their own clock, so when a
// defense inflates kernel service time the queue builds and the inflation
// compounds into the tail (p99/p999) long before it moves a mean. Every
// stream is a pure function of its StreamConfig — same config, same
// requests, byte for byte — which is what lets the fleet runner shard a
// cell across machines and still merge per-shard digests into output that
// is identical at any worker count.
package loadgen

import (
	"fmt"
	"math/rand"
)

// ArrivalKind selects the inter-arrival law of the open-loop clock.
type ArrivalKind int

const (
	// Poisson draws exponential inter-arrival gaps (memoryless clients);
	// the thinned per-shard process is again Poisson, so sharding a stream
	// across a fleet preserves the law exactly.
	Poisson ArrivalKind = iota
	// Fixed issues requests on a strict period — the worst case for queue
	// resonance and the easiest to reason about in tests.
	Fixed
)

// String names the arrival law for reports and flags.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Fixed:
		return "fixed"
	default:
		return "?"
	}
}

// ParseArrival resolves a CLI flag value to an arrival law.
func ParseArrival(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "fixed":
		return Fixed, nil
	}
	return 0, fmt.Errorf("loadgen: unknown arrival law %q (poisson|fixed)", s)
}

// StreamConfig fully determines one shard's request stream. Two streams
// built from equal configs produce identical request sequences.
type StreamConfig struct {
	// Seed drives every random draw in the stream (gaps, connection choice,
	// keep-alive mix, keys). Derive it from the cell identity, never from
	// loop state.
	Seed int64
	// Kind is the arrival law.
	Kind ArrivalKind
	// MeanGap is the mean inter-arrival gap in simulated cycles for this
	// shard (a fleet of N machines serving aggregate rate λ gives each
	// shard MeanGap = N/λ).
	MeanGap float64
	// Phase offsets the first arrival (fixed-rate fleets interleave shards
	// by Phase = shard*MeanGap/N so the aggregate stream stays periodic).
	Phase float64
	// Conns is the number of live connections multiplexed on the shard.
	Conns int
	// KeepAliveP is the probability a request rides an already-established
	// connection; the complement models connection churn (close + fresh
	// TCP/epoll setup on the request's connection slot before it is served).
	KeepAliveP float64
	// Keys is the Zipf key-universe size; 0 disables key modelling (every
	// request asks for key 0 — the byte-stream apps).
	Keys uint64
	// ZipfS is the Zipf skew exponent (>1); typical cache workloads sit
	// near 1.1.
	ZipfS float64
}

// Req is one open-loop request, filled in place by Stream.Next — the record
// path allocates nothing.
type Req struct {
	// Arrival is the request's arrival time in simulated cycles.
	Arrival float64
	// Conn is the connection slot the request uses.
	Conn int
	// Key is the Zipf-drawn key (0 when the stream has no key universe).
	Key uint64
	// Churn marks a request that re-establishes its connection first.
	Churn bool
}

// Stream generates a shard's request sequence.
type Stream struct {
	cfg   StreamConfig
	rng   *rand.Rand
	zipf  *rand.Zipf
	clock float64
	n     uint64
}

// NewStream builds the deterministic request source for cfg.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = 1
	}
	s := &Stream{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), clock: cfg.Phase}
	if cfg.Keys > 1 {
		zs := cfg.ZipfS
		if zs <= 1 {
			zs = 1.1
		}
		s.zipf = rand.NewZipf(s.rng, zs, 1, cfg.Keys-1)
	}
	return s
}

// Config returns the stream's immutable configuration.
func (s *Stream) Config() StreamConfig { return s.cfg }

// Next advances the stream by one request, filling r. The draw order is
// fixed (gap, connection, keep-alive, key) so the sequence is stable under
// refactors that don't mean to change it.
func (s *Stream) Next(r *Req) {
	gap := s.cfg.MeanGap
	if s.cfg.Kind == Poisson {
		gap = s.rng.ExpFloat64() * s.cfg.MeanGap
	}
	s.clock += gap
	r.Arrival = s.clock
	r.Conn = s.rng.Intn(s.cfg.Conns)
	r.Churn = s.cfg.KeepAliveP < 1 && s.rng.Float64() >= s.cfg.KeepAliveP
	r.Key = 0
	if s.zipf != nil {
		r.Key = s.zipf.Uint64()
	}
	s.n++
}

// Generated reports how many requests the stream has produced.
func (s *Stream) Generated() uint64 { return s.n }

// Reservoir is a stratified pool of measured service times: one stratum for
// keep-alive requests, one for churn requests (which carry the connection
// re-establishment kernel path on top of the serve path). The fleet runner
// fills it from real simulated requests driven through the per-request app
// hooks, then Replay samples it uniformly — so the replayed distribution is
// the measured distribution, not a parametric fit.
type Reservoir struct {
	keep  []float64
	churn []float64
	seed  int64
}

// NewReservoir builds an empty reservoir whose sampling draws derive from
// seed.
func NewReservoir(seed int64) *Reservoir {
	return &Reservoir{seed: seed}
}

// Seed returns the seed the reservoir's sampling draws derive from.
func (r *Reservoir) Seed() int64 { return r.seed }

// AddKeep records a measured keep-alive service time.
func (r *Reservoir) AddKeep(cycles float64) { r.keep = append(r.keep, cycles) }

// AddChurn records a measured churn-request service time.
func (r *Reservoir) AddChurn(cycles float64) { r.churn = append(r.churn, cycles) }

// Len reports the stratum sizes.
func (r *Reservoir) Len() (keep, churn int) { return len(r.keep), len(r.churn) }

// Means reports the per-stratum mean service times (0 for an empty
// stratum) — the calibration input that sets open-loop arrival rates.
func (r *Reservoir) Means() (keep, churn float64) {
	return meanOf(r.keep), meanOf(r.churn)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ReplayStats summarizes one replayed shard stream.
type ReplayStats struct {
	// Requests is the number of replayed requests.
	Requests uint64
	// Churns counts requests that re-established their connection.
	Churns uint64
	// BusyCycles is the total service time consumed.
	BusyCycles float64
	// SpanCycles is the stream's makespan: the last departure time.
	SpanCycles float64
}

// Utilization reports offered-load utilization over the replayed span.
func (st ReplayStats) Utilization() float64 {
	if st.SpanCycles <= 0 {
		return 0
	}
	return st.BusyCycles / st.SpanCycles
}

// lane is one reservoir's single-server queue inside a lockstep replay.
type lane struct {
	keep, churn []float64
	d           *Digest
	busyUntil   float64
	busyCycles  float64
}

// Replay drives n requests from the stream through one single-server queue
// per reservoir (Lindley's recurrence): a request arriving at A with
// service S starts at max(A, previous departure) and its sojourn time —
// queueing delay plus service — streams into that reservoir's digest in ds.
// Memory is O(1) in n: no latency slice is ever materialized, which is what
// lets a cell replay 10⁶–10⁷ requests with a fixed-size digest as its
// entire output.
//
// The queues run in lockstep. Each request is drawn from the stream once,
// and its stratum and sample index are drawn once from the reservoirs'
// shared seed, then applied to every reservoir. A stratum that was never
// observed falls back to the other one (a stream with KeepAliveP=1 never
// measures churn, and vice versa); with both empty the service time is 0.
// So that the one draw means the same for all of them, every reservoir
// must share one seed and equal stratum sizes; then each reservoir's digest
// and ReplayStats equal a replay of it alone, bit for bit. Anything else
// is an error, returned before the stream or any digest is touched.
func Replay(s *Stream, res []*Reservoir, n uint64, ds []*Digest) ([]ReplayStats, error) {
	if len(res) == 0 || len(ds) != len(res) {
		return nil, fmt.Errorf("loadgen: replay needs one digest per reservoir, got %d reservoirs and %d digests", len(res), len(ds))
	}
	first := res[0]
	nKeep, nChurn := first.Len()
	lanes := make([]lane, len(res))
	for i, r := range res {
		if k, c := r.Len(); r.seed != first.seed || k != nKeep || c != nChurn {
			return nil, fmt.Errorf("loadgen: lockstep reservoir %d (seed %d, %d keep, %d churn) differs from reservoir 0 (seed %d, %d keep, %d churn)",
				i, r.seed, k, c, first.seed, nKeep, nChurn)
		}
		lanes[i] = lane{keep: r.keep, churn: r.churn, d: ds[i]}
	}
	rng := rand.New(rand.NewSource(first.seed))
	var churns uint64
	var r Req
	for i := uint64(0); i < n; i++ {
		s.Next(&r)
		if r.Churn {
			churns++
		}
		fromChurn := r.Churn && nChurn > 0 || nKeep == 0
		size := nKeep
		if fromChurn {
			size = nChurn
		}
		idx := -1
		if size > 0 {
			idx = rng.Intn(size)
		}
		for j := range lanes {
			l := &lanes[j]
			var sv float64
			if idx >= 0 {
				if fromChurn {
					sv = l.churn[idx]
				} else {
					sv = l.keep[idx]
				}
				if sv < 0 {
					sv = 0
				}
			}
			start := r.Arrival
			if l.busyUntil > start {
				start = l.busyUntil
			}
			l.busyUntil = start + sv
			l.d.Record(l.busyUntil - r.Arrival)
			l.busyCycles += sv
		}
	}
	stats := make([]ReplayStats, len(lanes))
	for j, l := range lanes {
		stats[j] = ReplayStats{Requests: n, Churns: churns, BusyCycles: l.busyCycles, SpanCycles: l.busyUntil}
	}
	return stats, nil
}
