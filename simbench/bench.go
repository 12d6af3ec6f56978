package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/kimage"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small runs the test-sized variant of each workload; its digests are
	// committed separately.
	small bool
	// setupReps is how many fresh set-ups the run times; the last one is
	// driven.
	setupReps int
	// minPasses is the fewest passes a measured phase runs, whatever the
	// time budget.
	minPasses int
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name  string
	setup setupFunc
	// seedFree workloads use the seed only for host-side visiting order,
	// so their sim_digest is checked against the committed value at every
	// seed; the others only at seed 1.
	seedFree bool
}

var workloads = []workload{
	{"keepalive", setupFleet(kimage.TestSpec(), 10_000, 500), true},
	{"keepalive-paper", setupFleet(kimage.FullSpec(), 5_000, 500), true},
	{"lebench-churn", setupChurn(20, 1), true},
	{"eval-quick", setupEvalQuick, false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed digests.json
var digestsJSON []byte

// committedDigest returns the committed sim_digest for the run, if it has
// one: by size ("full" or "small"), then workload.
func committedDigest(c *config, w workload) (string, bool) {
	if !w.seedFree && c.seed != 1 {
		return "", false
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", true // a broken file fails the check rather than skipping it
	}
	size := "full"
	if c.small {
		size = "small"
	}
	return all[size][w.name], true
}

// schemeAcc is one scheme's share of a pass.
type schemeAcc struct {
	hostNS   int64 // host time in this scheme's request batches or test runs
	policyNS int64 // the consult time charged within them (traced passes)
	insts    uint64
	ops      uint64
	cycles   float64 // simulated
	ctr      counters
	policy   policyCounts
}

// pass is one pass's measurements.
type pass struct {
	rng    *rand.Rand
	tr     *tracer
	span   int  // the pass span
	traced bool // record op spans
	nextOp *int64
	curOp  int64

	ops, failed uint64
	digest      uint64
	schemes     [nSchemes]schemeAcc
	opNS        []float64          // request latencies (keepalive*)
	cloneNS     []float64          // snapshot clone times (lebench-churn)
	testNS      map[string]float64 // lebench-churn: mean cell time per test
	expS        map[string]float64 // eval-quick: seconds per experiment
	wall        time.Duration
}

// begin opens an op span under the pass (parent == p.span) or a span
// inside the current op. Untraced passes only time the interval.
func (p *pass) begin(name string, parent int) spanRef {
	if !p.traced {
		return spanRef{start: p.tr.now()}
	}
	if parent == p.span {
		*p.nextOp++
		p.curOp = *p.nextOp
	}
	return p.tr.begin(name, parent, p.curOp)
}

func (p *pass) opsPerSec() float64 { return ratio(float64(p.ops), p.wall.Seconds()) }

// record is one run's full result, appended to <out>/runs.jsonl.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Digest    string             `json:"sim_digest"`
	Problems  []string           `json:"problems,omitempty"`
	Passes    int                `json:"passes"`
	Metrics   map[string]summary `json:"metrics"`
	Model     map[string]float64 `json:"model"`
	// Samples are the per-pass ops_per_s and per-set-up setup_s values.
	Samples map[string][]float64 `json:"samples"`
	// SelfNS is a traced run's self time per span name, plus the policy
	// consult layer; it sums to the workload span.
	SelfNS map[string]int64 `json:"self_ns,omitempty"`

	spans []span
	prof  []byte
}

// run executes one workload: timed set-ups, a warm-up pass that fixes the
// sim_digest, then an untraced measured phase and, with tracing, a traced
// one of equal length.
func run(c *config) (*record, error) {
	w, ok := findWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	rec := &record{Workload: w.name, Seed: c.seed, Trace: c.trace, Metrics: map[string]summary{}}
	tr := newTracer(c.trace)
	root := tr.begin("workload", 0, 0)

	var d instance
	var setupS dist
	steps := map[string]dist{}
	for i := 0; i < c.setupReps; i++ {
		if d != nil {
			d.release()
			d = nil
		}
		// Every set-up starts from a collected heap whose free pages went
		// back to the OS, as in a fresh process: otherwise whether it reuses
		// its predecessor's pages depends on GC timing, and so does the
		// peak RSS.
		debug.FreeOSMemory()
		st := map[string]time.Duration{}
		sp := tr.begin("setup", root.id, 0)
		var err error
		d, err = w.setup(c, tr, sp.id, st)
		setupS = append(setupS, tr.end(sp, 0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for name, v := range st {
			steps[name] = append(steps[name], float64(v)/1e6)
		}
	}
	defer d.release()

	rng := rand.New(rand.NewSource(c.seed))
	var nextOp int64
	runPhase := func(name string, traced bool, budget time.Duration, minPasses int) ([]*pass, error) {
		ph := tr.begin(name, root.id, 0)
		defer tr.end(ph, 0)
		var out []*pass
		start := time.Now()
		for {
			p := &pass{rng: rng, tr: tr, traced: traced, nextOp: &nextOp}
			s := tr.begin("pass", ph.id, 0)
			p.span = s.id
			err := d.pass(p)
			p.wall = tr.end(s, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %s pass: %w", w.name, name, err)
			}
			out = append(out, p)
			el := time.Since(start)
			if len(out) >= minPasses && el+el/time.Duration(len(out)) > budget {
				return out, nil
			}
		}
	}

	warm, err := runPhase("warmup", false, 0, 1)
	if err != nil {
		return nil, err
	}
	digest := d.warmDigest()
	rec.Digest = fmt.Sprintf("%016x", digest)
	if want, checked := committedDigest(c, w); checked && want != rec.Digest {
		rec.Problems = append(rec.Problems, fmt.Sprintf("sim_digest %s, committed %q", rec.Digest, want))
	}

	budget := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		budget /= 2
	}
	runtime.GC()
	d.decorate(false)
	untraced, err := runPhase("untraced", false, budget, c.minPasses)
	if err != nil {
		return nil, err
	}
	var traced []*pass
	var mem0, mem1 runtime.MemStats
	if c.trace {
		runtime.GC()
		d.decorate(true)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem0)
		traced, err = runPhase("traced", true, budget, c.minPasses)
		runtime.ReadMemStats(&mem1)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		rec.prof = prof.Bytes()
	}
	tr.end(root, 0)

	all := append(append(append([]*pass(nil), warm...), untraced...), traced...)
	for _, p := range all {
		if p.digest != 0 && p.digest != digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("a pass digested %016x, the warm-up %s", p.digest, rec.Digest))
			p.failed = p.ops
		}
		rec.Attempted += p.ops
		rec.Failed += p.failed
	}
	rec.Passes = len(untraced) + len(traced)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	var ops dist
	for _, p := range untraced {
		ops = append(ops, p.opsPerSec())
	}
	rec.Metrics["ops_per_s"] = ops.best("1/s")
	rec.Metrics["setup_s"] = setupS.summary("s")
	rec.Samples = map[string][]float64{"ops_per_s": ops, "setup_s": setupS}
	rec.Metrics["peak_rss_mb"] = dist{float64(ru.Maxrss) / 1024}.summary("MB")
	for name, s := range simMIPS(untraced) {
		rec.Metrics[name] = s
	}
	rec.Model = model(untraced)

	if c.trace {
		rec.spans = tr.spans
		self, _, err := reconcile(tr.spans)
		if err != nil {
			rec.Problems = append(rec.Problems, "trace does not reconcile: "+err.Error())
		}
		rec.SelfNS = self
		shares, err := flatShares(rec.prof)
		if err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
		for name, s := range layerMetrics(steps, untraced, traced, tr.clocks, shares, &mem0, &mem1) {
			rec.Metrics[name] = s
		}
	}
	if len(rec.Problems) > 0 {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// simMIPS is committed simulated instructions per host microsecond, per
// pass, pooled and per scheme; eval-quick has no machines of its own and
// reports none.
func simMIPS(passes []*pass) map[string]summary {
	var pooled dist
	var per [nSchemes]dist
	for _, p := range passes {
		var insts uint64
		var ns int64
		for i, a := range p.schemes {
			insts += a.insts
			ns += a.hostNS
			per[i] = append(per[i], 1e3*ratio(float64(a.insts), float64(a.hostNS)))
		}
		pooled = append(pooled, 1e3*ratio(float64(insts), float64(ns)))
	}
	out := map[string]summary{"cpu.sim_mips": pooled.best("Minst/s")}
	for i, n := range schemeNames {
		out["cpu.sim_mips."+n] = per[i].best("Minst/s")
	}
	return out
}

// model is the simulated-time side: kilocycles per op per scheme, and each
// scheme's overhead over UNSAFE. sim_digest pins these, so they are printed
// but not gated.
func model(passes []*pass) map[string]float64 {
	out := map[string]float64{}
	var kc [nSchemes]float64
	for i, n := range schemeNames {
		var cyc float64
		var ops uint64
		for _, p := range passes {
			cyc += p.schemes[i].cycles
			ops += p.schemes[i].ops
		}
		kc[i] = ratio(cyc, float64(ops)) / 1e3
		out["model.kcycles_per_op."+n] = kc[i]
	}
	for i, n := range schemeNames[1:] {
		out["model.overhead."+n] = ratio(kc[i+1], kc[0])
	}
	return out
}

// cellTests are the LEBench tests whose cells take at least 2% of a
// lebench-churn pass; lebench.cell_ms.<test> reports each.
var cellTests = []string{"big-fork", "big-mmap", "select", "poll", "mmap", "epoll", "small-fork"}

// timedExps are the experiments that take at least 2% of an eval-quick
// pass; harness.exp_s.<experiment> reports each.
var timedExps = []string{"taillats", "relsec", "fig9.2", "staticflow", "sensitivity", "table10.1", "poc", "fig9.3"}

// layerMetrics computes the per-layer metrics of a traced run but the
// sim-MIPS ones, which every run records (simMIPS). Counters and times come
// from the traced phase. A layer the workload does not reach reports 0.
func layerMetrics(steps map[string]dist, untraced, traced []*pass, clocks *[nSchemes]consultClock,
	shares map[string]float64, mem0, mem1 *runtime.MemStats) map[string]summary {
	out := map[string]summary{}
	n := len(traced)
	put := func(name, unit string, v float64) {
		out[name] = summary{Value: v, Unit: unit, P25: v, Median: v, P75: v, N: n}
	}

	for _, s := range []string{"harness.new", "harness.boot", "harness.views", "apps.dial"} {
		if d := steps[s]; len(d) > 0 {
			out[s+"_ms"] = d.summary("ms")
		} else {
			out[s+"_ms"] = summary{Unit: "ms"}
		}
	}

	var sch [nSchemes]schemeAcc
	var ctr counters
	var ops uint64
	var wall float64
	var opNS, cloneNS []float64
	var tracedOps dist
	testMS, expS := map[string]dist{}, map[string]dist{}
	for _, p := range traced {
		for i, a := range p.schemes {
			s := &sch[i]
			s.hostNS += a.hostNS
			s.policyNS += a.policyNS
			s.insts += a.insts
			s.ops += a.ops
			s.ctr.add(a.ctr)
			s.policy.add(a.policy)
			ctr.add(a.ctr)
		}
		ops += p.ops
		wall += p.wall.Seconds()
		opNS = append(opNS, p.opNS...)
		cloneNS = append(cloneNS, p.cloneNS...)
		tracedOps = append(tracedOps, p.opsPerSec())
		for _, t := range cellTests {
			testMS[t] = append(testMS[t], p.testNS[t]/1e6)
		}
		for _, e := range timedExps {
			expS[e] = append(expS[e], p.expS[e])
		}
	}

	put("apps.request_us.p50", "us", percentile(opNS, 50)/1e3)
	put("apps.request_us.p99", "us", percentile(opNS, 99)/1e3)
	put("harness.clone_us.p50", "us", percentile(cloneNS, 50)/1e3)
	put("harness.clone_us.p99", "us", percentile(cloneNS, 99)/1e3)
	for _, t := range cellTests {
		out["lebench.cell_ms."+t] = testMS[t].summary("ms")
	}
	for _, e := range timedExps {
		out["harness.exp_s."+e] = expS[e].summary("s")
	}

	for i, name := range schemeNames {
		s := &sch[i]
		put("cpu.host_ns_per_inst."+name, "ns", ratio(float64(s.hostNS-s.policyNS), float64(s.insts)))
		if i == 0 {
			continue // UNSAFE is never decorated: it has no consults to count
		}
		put("schemes.consult_ns."+name, "ns", clocks[i].meanNS())
		put("schemes.consult_share."+name, "%", 100*ratio(float64(s.policyNS), float64(s.hostNS)))
		put("schemes.consults_per_kinst."+name, "1/kinst", 1e3*ratio(float64(s.policy.calls), float64(s.insts)))
		put("schemes.block_ratio."+name, "ratio", ratio(float64(s.policy.blocks), float64(s.policy.calls)))
	}
	persp := sch[nSchemes-1]
	put("viewcache.dsv.hit_rate", "ratio", ctr.DSV.HitRate())
	put("viewcache.isv.hit_rate", "ratio", ctr.ISV.HitRate())
	put("viewcache.refills_per_kinst", "1/kinst",
		1e3*ratio(float64(persp.ctr.DSV.Refills+persp.ctr.ISV.Refills), float64(persp.insts)))

	c := ctr.CPU
	kinst := float64(c.Insts) / 1e3
	put("cpu.insts_per_op", "count", ratio(float64(c.Insts), float64(ops)))
	put("cpu.transient_per_kinst", "1/kinst", ratio(float64(c.TransientInsts), kinst))
	put("cpu.mispredicts_per_kinst", "1/kinst", ratio(float64(c.Mispredicts), kinst))
	put("cpu.fences_per_kinst", "1/kinst", ratio(float64(c.Fences), kinst))
	put("bbcache.threaded_share", "ratio", ratio(float64(c.ThreadedInsts), float64(c.Insts)))
	put("bbcache.hit_rate", "ratio", ratio(float64(c.BBHits), float64(c.BBLookups)))
	put("bbcache.chain_share", "ratio", ratio(float64(c.BBChains), float64(c.BBChains+c.BBLookups)))
	put("cache.l1i.hit_rate", "ratio", ctr.L1I.HitRate())
	put("cache.l1d.hit_rate", "ratio", ctr.L1D.HitRate())
	put("cache.l2.hit_rate", "ratio", ctr.L2.HitRate())
	put("cache.accesses_per_kinst", "1/kinst", ratio(float64(ctr.L1I.Accesses+ctr.L1D.Accesses), kinst))
	put("vmm.tlb.hit_rate", "ratio", ratio(float64(ctr.TLB.Hits), float64(ctr.TLB.Hits+ctr.TLB.Misses)))
	put("vmm.tlb.misses_per_op", "count", ratio(float64(ctr.TLB.Misses), float64(ops)))
	k := ctr.Kernel
	var hostNS int64
	for _, s := range sch {
		hostNS += s.hostNS
	}
	put("kernel.syscalls_per_op", "count", ratio(float64(k.Syscalls), float64(ops)))
	put("kernel.page_faults_per_op", "count", ratio(float64(k.PageFaults), float64(ops)))
	put("kernel.ctx_switches_per_op", "count", ratio(float64(k.ContextSwitch), float64(ops)))
	put("kernel.host_us_per_syscall", "us", ratio(float64(hostNS), float64(k.Syscalls))/1e3)

	for _, g := range profGroups {
		put("prof.flat_pct."+g, "%", shares[g])
	}
	put("go.alloc_bytes_per_op", "B", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(ops)))
	put("go.gc_per_kop", "1/kop", 1e3*ratio(float64(mem1.NumGC-mem0.NumGC), float64(ops)))

	var plain dist
	for _, p := range untraced {
		plain = append(plain, p.opsPerSec())
	}
	put("trace.overhead_pct", "%", 100*(1-ratio(slices.Max(tracedOps), slices.Max(plain))))
	return out
}

// perLayerNames lists layerMetrics' names in a stable order (tests and
// BENCHMARK.json keep to it).
func perLayerNames() []string {
	names := []string{"harness.new_ms", "harness.boot_ms", "harness.views_ms", "apps.dial_ms",
		"apps.request_us.p50", "apps.request_us.p99", "harness.clone_us.p50", "harness.clone_us.p99"}
	for _, t := range cellTests {
		names = append(names, "lebench.cell_ms."+t)
	}
	for _, e := range timedExps {
		names = append(names, "harness.exp_s."+e)
	}
	names = append(names, "cpu.sim_mips")
	for _, s := range schemeNames {
		names = append(names, "cpu.sim_mips."+s)
	}
	for _, s := range schemeNames {
		names = append(names, "cpu.host_ns_per_inst."+s)
	}
	for _, m := range []string{"consult_ns", "consult_share", "consults_per_kinst", "block_ratio"} {
		for _, s := range schemeNames[1:] {
			names = append(names, "schemes."+m+"."+s)
		}
	}
	names = append(names, "viewcache.dsv.hit_rate", "viewcache.isv.hit_rate", "viewcache.refills_per_kinst",
		"cpu.insts_per_op", "cpu.transient_per_kinst", "cpu.mispredicts_per_kinst", "cpu.fences_per_kinst",
		"bbcache.threaded_share", "bbcache.hit_rate", "bbcache.chain_share",
		"cache.l1i.hit_rate", "cache.l1d.hit_rate", "cache.l2.hit_rate", "cache.accesses_per_kinst",
		"vmm.tlb.hit_rate", "vmm.tlb.misses_per_op",
		"kernel.syscalls_per_op", "kernel.page_faults_per_op", "kernel.ctx_switches_per_op", "kernel.host_us_per_syscall")
	for _, g := range profGroups {
		names = append(names, "prof.flat_pct."+g)
	}
	return append(names, "go.alloc_bytes_per_op", "go.gc_per_kop", "trace.overhead_pct")
}

// endToEndNames are the gated metrics every untraced run prints.
var endToEndNames = []string{"ops_per_s", "setup_s", "peak_rss_mb"}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
