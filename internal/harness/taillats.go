// The fleet-scale open-loop tail-latency experiment (-exp taillats).
//
// The paper's §7 datacenter evaluation reports closed-loop *mean* throughput
// overheads, but a defense that inflates kernel service time shows up in
// production as p99/p999 tail latency long before it moves a mean: under
// open-loop load (clients issue on their own clock) queueing delay grows
// nonlinearly with utilization, so a 2× service inflation at moderate load
// can be a 10× tail inflation. This experiment measures that directly:
//
//  1. Calibrate: a fleet of cloned UNSAFE machines (one per shard, via the
//     BootMachine snapshot cache) serves probe requests through the
//     per-request apps.FleetConn drive hooks, filling a stratified
//     service-time reservoir (keep-alive vs connection-churn strata). The
//     measured UNSAFE mean sets each app's arrival rate at a fixed
//     utilization rho, the same operating point for every scheme.
//  2. Probe: every other (app, scheme, shard) cell probes its own machine
//     the same way — identical drive sequence, scheme-free seeds — filling
//     that scheme's reservoir.
//  3. Replay: one cell per (app, shard) drives 10⁶+ open-loop arrivals
//     through Lindley's recurrence for every scheme in lockstep, each
//     scheme drawing service times from its own reservoir and streaming
//     sojourn times into its own mergeable log-bucket digest (O(1)
//     memory). Arrival and sampling seeds derive without the scheme, so
//     every scheme faces the same arrival process and the same sample
//     draw sequence (a paired comparison), and one lockstep replay gives
//     each scheme exactly the digest a replay of it alone would.
//  4. Merge: per-shard digests fold in canonical shard order, so output is
//     byte-identical at any -jobs.
//
// Full simulation of 10⁶ requests per cell would take hours at ~43
// sim-MIPS; the hybrid probe-then-replay design keeps the kernel-path cost
// real (every reservoir entry is a fully simulated request under that
// scheme's policy) while the queueing dynamics run at millions of replayed
// requests per host-second.
package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/loadgen"
	"repro/internal/schemes"
)

const (
	// tailRho is the per-machine utilization the UNSAFE calibration targets.
	// 0.35 keeps the slowest measured scheme (~2.4× FENCE) below saturation
	// (rho ≈ 0.85) while leaving queueing room for tails to amplify.
	tailRho = 0.35
	// tailKeepAliveP is the keep-alive fraction of the request mix; the
	// complement pays the connection-churn kernel path.
	tailKeepAliveP = 0.9
	// tailConns is the modeled live-connection count per shard machine.
	tailConns = 16
	// tailZipfKeys/tailZipfS shape the key-popularity distribution for the
	// key-value apps (memcached, redis). Keys shape the generated stream;
	// the simulated kernel path cost is key-independent (single-page cache).
	tailZipfKeys = 16384
	tailZipfS    = 1.1
)

// TailCell is one (app, scheme) fleet measurement: per-shard digests merged
// in canonical shard order.
type TailCell struct {
	App    string
	Scheme schemes.Kind
	// Requests is the replayed open-loop request count (all shards).
	Requests uint64
	// Churns counts replayed requests that paid the reconnection path.
	Churns uint64
	// MeanService is the probe-measured expected service time in cycles
	// (keep-alive and churn strata weighted by the request mix).
	MeanService float64
	// P50/P99/P999/Mean are sojourn times (queueing + service) in cycles.
	P50, P99, P999, Mean float64
	// P50X/P99X/P999X are overheads vs the app's UNSAFE cell.
	P50X, P99X, P999X float64
	// HandlerFaults accumulates kernel-reported faults across shard probes.
	HandlerFaults uint64
	Err           string // cell failure, "" if it measured cleanly
}

// TailReport is the full taillats result: the grid plus the load model it
// was measured under.
type TailReport struct {
	Arrival  loadgen.ArrivalKind
	Fleet    int
	Requests uint64 // replayed per (app, scheme) cell
	Rho      float64
	Cells    []TailCell
}

// tailShard is one (app, scheme, shard) probe result: the measured
// service-time reservoir plus fault accounting.
type tailShard struct {
	res    *loadgen.Reservoir
	faults uint64
}

// tailLane is one scheme's share of a lockstep (app, shard) replay.
type tailLane struct {
	dig loadgen.Digest
	st  loadgen.ReplayStats
}

// tailKeys returns the Zipf key-universe size for an app (0 disables key
// modelling for the byte-stream apps).
func tailKeys(app string) uint64 {
	if app == "memcached" || app == "redis" {
		return tailZipfKeys
	}
	return 0
}

// tailRequests resolves the replayed request count per (app, scheme) cell.
func (o Options) tailRequests() uint64 {
	if o.TailRequests > 0 {
		return uint64(o.TailRequests)
	}
	return 1_000_000
}

// tailFleet resolves the machines-per-cell fleet width.
func (o Options) tailFleet() int {
	if o.TailFleet > 0 {
		return o.TailFleet
	}
	return 4
}

// tailProbes resolves the fully-simulated probe requests per shard.
func (o Options) tailProbes() int {
	if o.TailProbes > 0 {
		return o.TailProbes
	}
	return 128
}

// tailProbeStream builds the shard's probe drive stream. Seeds derive from
// (run seed, app, shard) — never the scheme — so every scheme drives the
// identical keep-alive/churn sequence and the comparison is paired.
func (h *Harness) tailProbeStream(app string, shard int) *loadgen.Stream {
	return loadgen.NewStream(loadgen.StreamConfig{
		Seed:       CellSeed(h.Opt.Seed, "taillats-probe", app, strconv.Itoa(shard)),
		Kind:       h.Opt.TailArrival,
		MeanGap:    1, // probes are closed-loop; only the mix draws matter
		Conns:      tailConns,
		KeepAliveP: tailKeepAliveP,
		Keys:       tailKeys(app),
		ZipfS:      tailZipfS,
	})
}

// tailProbe fully simulates one shard machine's probe requests under the
// scheme and returns the measured service-time reservoir.
func (h *Harness) tailProbe(kind schemes.Kind, w Workload, shard int) (tailShard, error) {
	out := tailShard{}
	views, err := h.ViewsFor(w)
	if err != nil {
		return out, err
	}
	k, err := h.newMachine(kind, views.Select(kind))
	if err != nil {
		return out, err
	}
	defer k.Release()
	conn, err := apps.DialFleet(*w.App, k)
	if err != nil {
		return out, err
	}
	// Warm the machine so cold-boot cache misses don't contaminate the
	// reservoir (mirrors Conn.Serve's warmup).
	for i := 0; i < 3; i++ {
		if _, err := conn.ServeOne(); err != nil {
			return out, err
		}
	}
	res := loadgen.NewReservoir(CellSeed(h.Opt.Seed, "taillats-sample", w.Name, strconv.Itoa(shard)))
	ps := h.tailProbeStream(w.Name, shard)
	var r loadgen.Req
	for i := 0; i < h.Opt.tailProbes(); i++ {
		ps.Next(&r)
		if r.Churn {
			cyc, err := conn.ServeChurn()
			if err != nil {
				return out, fmt.Errorf("probe %d (churn): %w", i, err)
			}
			res.AddChurn(cyc)
		} else {
			cyc, err := conn.ServeOne()
			if err != nil {
				return out, fmt.Errorf("probe %d: %w", i, err)
			}
			res.AddKeep(cyc)
		}
	}
	out.res = res
	out.faults = k.Stats.HandlerFaults
	if out.faults > 0 {
		return out, fmt.Errorf("%d handler faults", out.faults)
	}
	return out, nil
}

// tailMeanService is the expected per-request service time implied by a
// shard reservoir under the keep-alive/churn mix.
func tailMeanService(res *loadgen.Reservoir) float64 {
	keep, churn := res.Means()
	if churn == 0 {
		churn = keep
	}
	return tailKeepAliveP*keep + (1-tailKeepAliveP)*churn
}

// tailReplay replays the shard's slice of the open-loop arrival stream
// against every reservoir in res at once, streaming each one's sojourn
// times into the matching digest in ds. meanGap comes from the UNSAFE
// calibration; the stream seed omits the scheme so arrivals are identical
// across schemes.
func (h *Harness) tailReplay(app string, shard int, meanGap float64, res []*loadgen.Reservoir, ds []*loadgen.Digest) ([]loadgen.ReplayStats, error) {
	s := loadgen.NewStream(loadgen.StreamConfig{
		Seed:       CellSeed(h.Opt.Seed, "taillats-stream", app, strconv.Itoa(shard)),
		Kind:       h.Opt.TailArrival,
		MeanGap:    meanGap,
		Phase:      float64(shard) * meanGap / float64(h.Opt.tailFleet()),
		Conns:      tailConns,
		KeepAliveP: tailKeepAliveP,
		Keys:       tailKeys(app),
		ZipfS:      tailZipfS,
	})
	return loadgen.Replay(s, res, h.Opt.shardRequests(shard), ds)
}

// shardRequests splits the per-cell request count across the fleet; shard 0
// absorbs the remainder so the total is exact.
func (o Options) shardRequests(shard int) uint64 {
	n, f := o.tailRequests(), uint64(o.tailFleet())
	per := n / f
	if shard == 0 {
		per += n % f
	}
	return per
}

// TailLats runs the open-loop fleet grid. Memoized on the harness like
// Fig92/Fig93: the grid is a pure function of the options.
func (h *Harness) TailLats() (*TailReport, error) {
	h.tailOnce.Do(func() { h.tailRep, h.tailErr = h.tailGrid() })
	return h.tailRep, h.tailErr
}

func (h *Harness) tailGrid() (*TailReport, error) {
	if !hasScheme(h.Opt.Schemes, schemes.Unsafe) {
		return nil, fmt.Errorf("taillats: %w", ErrMissingBaseline)
	}
	var wls []Workload
	for _, w := range h.Workloads() {
		if w.App != nil {
			wls = append(wls, w)
		}
	}
	fleet := h.Opt.tailFleet()
	rep := &TailReport{
		Arrival:  h.Opt.TailArrival,
		Fleet:    fleet,
		Requests: h.Opt.tailRequests(),
		Rho:      tailRho,
	}
	shardLabel := func(w Workload, s int) string { return w.Name + "/shard" + strconv.Itoa(s) }

	// Phase 1: UNSAFE calibration probes, one cell per (app, shard). These
	// reservoirs both set each app's arrival rate and serve as the UNSAFE
	// scheme's measured service distribution.
	type shardID struct {
		wi, shard int
	}
	var calIDs []shardID
	var calSpecs []CellSpec
	for wi, w := range wls {
		for s := 0; s < fleet; s++ {
			calIDs = append(calIDs, shardID{wi, s})
			calSpecs = append(calSpecs, CellSpec{"taillats-cal", schemes.Unsafe.String(), shardLabel(w, s)})
		}
	}
	calCells, calErrs := runGrid(h, calSpecs, func(_ context.Context, i int, _ CellSpec) (tailShard, error) {
		id := calIDs[i]
		return h.tailProbe(schemes.Unsafe, wls[id.wi], id.shard)
	})

	// Arrival gap per app from the merged UNSAFE reservoirs, folded in
	// canonical shard order: gap = E[service]/rho. Apps whose calibration
	// failed get gap 0, and every dependent cell reports the missing
	// baseline instead of replaying garbage.
	meanGap := make([]float64, len(wls))
	calErr := make([]error, len(wls))
	for i, id := range calIDs {
		if calErrs[i] != nil && calErr[id.wi] == nil {
			calErr[id.wi] = calErrs[i]
		}
	}
	for wi, w := range wls {
		if calErr[wi] != nil {
			continue
		}
		var sum float64
		var n int
		for i, id := range calIDs {
			if id.wi != wi {
				continue
			}
			sum += tailMeanService(calCells[i].res)
			n++
		}
		if n == 0 || sum <= 0 {
			calErr[wi] = fmt.Errorf("taillats: no UNSAFE calibration for %s", w.Name)
			continue
		}
		meanGap[wi] = (sum / float64(n)) / tailRho
	}

	// Phase 2: every (app, scheme≠UNSAFE, shard) cell probes its machine;
	// UNSAFE shards reuse the calibration reservoirs — the probe would be
	// identical. probed and probeErrs hold every (app, scheme, shard).
	nk := len(h.Opt.Schemes)
	at := func(wi, ki, s int) int { return (wi*nk+ki)*fleet + s }
	probed := make([]tailShard, len(wls)*nk*fleet)
	probeErrs := make([]error, len(probed))
	type cellID struct {
		wi, ki, shard int
	}
	var ids []cellID
	var specs []CellSpec
	for wi, w := range wls {
		for ki, kind := range h.Opt.Schemes {
			for s := 0; s < fleet; s++ {
				if kind != schemes.Unsafe {
					ids = append(ids, cellID{wi, ki, s})
					specs = append(specs, CellSpec{"taillats", kind.String(), shardLabel(w, s)})
					continue
				}
				j := at(wi, ki, s)
				if probeErrs[j] = calErr[wi]; probeErrs[j] == nil {
					probed[j] = calCells[wi*fleet+s] // calibration grid is (app-major, shard-minor)
				}
			}
		}
	}
	outs, outErrs := runGrid(h, specs, func(_ context.Context, i int, _ CellSpec) (tailShard, error) {
		id := ids[i]
		w := wls[id.wi]
		if calErr[id.wi] != nil {
			return tailShard{}, fmt.Errorf("UNSAFE calibration failed for %s: %w", w.Name, calErr[id.wi])
		}
		return h.tailProbe(h.Opt.Schemes[id.ki], w, id.shard)
	})
	for i, id := range ids {
		j := at(id.wi, id.ki, id.shard)
		probed[j], probeErrs[j] = outs[i], outErrs[i]
	}

	// Phase 3: one lockstep replay per (app, shard) drives the shard's
	// stream through the reservoir of every scheme whose probe succeeded.
	// The reservoirs share the scheme-free sampling seed, and one probe
	// stream filled their strata, so the stratum sizes match and each lane
	// equals a replay of that scheme alone.
	var replaySpecs []CellSpec
	for _, w := range wls {
		for s := 0; s < fleet; s++ {
			replaySpecs = append(replaySpecs, CellSpec{Experiment: "taillats-replay", Workload: shardLabel(w, s)})
		}
	}
	replays, replayErrs := runGrid(h, replaySpecs, func(_ context.Context, i int, _ CellSpec) ([]tailLane, error) {
		wi, s := i/fleet, i%fleet
		lanes := make([]tailLane, nk)
		var kis []int
		var res []*loadgen.Reservoir
		var ds []*loadgen.Digest
		for ki := range lanes {
			if j := at(wi, ki, s); probeErrs[j] == nil {
				kis = append(kis, ki)
				res = append(res, probed[j].res)
				ds = append(ds, &lanes[ki].dig)
			}
		}
		if len(res) == 0 {
			return lanes, nil
		}
		sts, err := h.tailReplay(wls[wi].Name, s, meanGap[wi], res, ds)
		if err != nil {
			return nil, err
		}
		for li, ki := range kis {
			lanes[ki].st = sts[li]
		}
		return lanes, nil
	})

	// Merge shards per (app, scheme) in canonical order and aggregate
	// errors, mirroring the Fig93 reassembly discipline.
	var cerrs CellErrors
	for wi, w := range wls {
		for ki, kind := range h.Opt.Schemes {
			c := TailCell{App: w.Name, Scheme: kind}
			var dig loadgen.Digest
			var svcSum float64
			var svcN int
			for s := 0; s < fleet; s++ {
				j, ri := at(wi, ki, s), wi*fleet+s
				c.HandlerFaults += probed[j].faults
				err := probeErrs[j]
				if err == nil {
					err = replayErrs[ri]
				}
				if err != nil {
					if c.Err == "" {
						c.Err = err.Error()
					}
					cerrs.Addf("taillats/%v/%s/shard%d: %w", kind, w.Name, s, err)
					continue
				}
				lane := &replays[ri][ki]
				dig.Merge(&lane.dig)
				c.Requests += lane.st.Requests
				c.Churns += lane.st.Churns
				svcSum += tailMeanService(probed[j].res)
				svcN++
			}
			if svcN > 0 {
				c.MeanService = svcSum / float64(svcN)
			}
			if dig.Count() > 0 {
				c.P50 = dig.Quantile(0.50)
				c.P99 = dig.Quantile(0.99)
				c.P999 = dig.Quantile(0.999)
				c.Mean = dig.Mean()
			}
			rep.Cells = append(rep.Cells, c)
		}
	}
	normalizeTails(rep.Cells)
	return rep, cerrs.Err()
}

// normalizeTails fills per-scheme overheads vs each app's UNSAFE cell.
// Apps without a clean UNSAFE measurement keep zero overheads, matching the
// normalizeApps convention.
func normalizeTails(cells []TailCell) {
	base := map[string]TailCell{}
	for _, c := range cells {
		if c.Scheme == schemes.Unsafe && c.Err == "" && c.P50 > 0 {
			base[c.App] = c
		}
	}
	for i := range cells {
		c := &cells[i]
		b, ok := base[c.App]
		if !ok || c.P50 <= 0 {
			continue
		}
		c.P50X = c.P50 / b.P50
		c.P99X = c.P99 / b.P99
		c.P999X = c.P999 / b.P999
	}
}

// PrintTailLats renders the tail-latency figure: absolute sojourn quantiles
// in kilocycles plus overheads vs UNSAFE.
func PrintTailLats(w io.Writer, rep *TailReport, kinds []schemes.Kind) {
	Section(w, "Tail latency: open-loop fleet, sojourn quantiles vs UNSAFE")
	fmt.Fprintf(w, "arrival=%v rho=%.2f fleet=%d requests/cell=%d\n",
		rep.Arrival, rep.Rho, rep.Fleet, rep.Requests)
	fmt.Fprintf(w, "%-11s%-20s%10s%10s%10s%8s%8s%8s\n",
		"app", "scheme", "p50(kc)", "p99(kc)", "p999(kc)", "p50x", "p99x", "p999x")
	byApp := map[string]map[schemes.Kind]TailCell{}
	var order []string
	for _, c := range rep.Cells {
		m := byApp[c.App]
		if m == nil {
			m = map[schemes.Kind]TailCell{}
			byApp[c.App] = m
			order = append(order, c.App)
		}
		m[c.Scheme] = c
	}
	for _, a := range order {
		for _, k := range kinds {
			c := byApp[a][k]
			fmt.Fprintf(w, "%-11s%-20s%10.1f%10.1f%10.1f%8.2f%8.2f%8.2f\n",
				a, k.String(), c.P50/1e3, c.P99/1e3, c.P999/1e3, c.P50X, c.P99X, c.P999X)
		}
	}
	var faults uint64
	var failed int
	for _, c := range rep.Cells {
		faults += c.HandlerFaults
		if c.Err != "" {
			failed++
		}
	}
	if failed > 0 || faults > 0 {
		fmt.Fprintf(w, "!! %d cell(s) failed, %d handler fault(s):\n", failed, faults)
		for _, c := range rep.Cells {
			if c.Err != "" {
				fmt.Fprintf(w, "   %v/%s: %s\n", c.Scheme, c.App, c.Err)
			}
		}
	}
}

// tailMemo fields live on the Harness (see harness.go); declared here to
// keep the taillats machinery in one file.
type tailMemo struct {
	tailOnce sync.Once
	tailRep  *TailReport
	tailErr  error
}
