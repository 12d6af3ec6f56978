// Command simbench is the simulator's end-to-end benchmark. It drives the
// simulator through its public entry points only (harness.New, BootMachine,
// ViewsFor and SuperviseExperiments; apps.DialFleet and FleetConn.ServeOne;
// lebench.RunTest; the cpu.Policy interface) and reads the public Stats of
// cpu, cache, vmm, viewcache, schemes and kernel.
//
// Usage, from the repository root:
//
//	bash simbench/run.sh --workload keepalive --seed 1 --seconds 25 --trace 0
//	bash simbench/run.sh compare runsA.jsonl runsB.jsonl
//
// One invocation runs one workload in its own process. It times nine fresh
// set-ups, runs one warm-up pass, checks the sim_digest, then repeats passes
// of fixed work until --seconds have been measured. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics (the end-to-end ones, or with --trace 1 the per-layer ones). The
// full record, including each metric's quartiles and sample count and the
// per-pass samples, is appended to <out>/runs.jsonl, which the compare mode
// reads.
//
// # Workloads
//
// Load is a closed loop driven by one goroutine, except eval-quick, whose
// supervisor runs cells on two workers (the host's two cores). GC runs at
// GOGC=300, as perspective-sim sets it. All but eval-quick run UNSAFE, FENCE,
// DOM, STT and PERSPECTIVE (dynamic ISV); there the seed only permutes the
// host-side order in which machines and cells are visited, so the
// sim_digest does not depend on it. eval-quick passes the seed to the
// simulator as Options.Seed.
//
//   - keepalive: 4 apps × 5 schemes = 20 warm FleetConn machines on the
//     quick image (2,590 functions); a pass is 10,000 requests in
//     round-robin batches of 25 in a seeded machine order; op = one
//     ServeOne. Why: the steady committed path — threaded dispatch, caches
//     and L0, the resolve lookaside and soft-TLB hits, the policy consult —
//     with no boot, build or view work.
//   - keepalive-paper: the same on the paper-scale image (27,639
//     functions), 5,000 requests a pass. Why: its working set is ten times
//     the simulator's own host caches (block cache, L0, lookaside, soft TLB)
//     and the 128-entry modelled view caches, and Perspective's consult does
//     about twice the work; policy, view-cache and capacity changes show
//     here far more than in keepalive.
//   - lebench-churn: every LEBench test × 5 schemes, each cell a fresh
//     BootMachine clone running lebench.RunTest for 20 iterations, in a
//     seeded cell order; op = one cell. Why: the write and invalidation
//     side of the same layers — fork, mmap/munmap, page faults and brk
//     build and tear down page tables, flush TLBs and bump translation
//     epochs; allocator and DSV assign/revoke, copy-on-write and snapshot
//     clones. A gain in keepalive that costs these paths shows here.
//   - eval-quick: the whole experiment registry through
//     harness.SuperviseExperiments at quick scale, Jobs=2, no checkpoint,
//     a fresh harness each pass; op = one delivered cell. Why: what a
//     reproducer runs, set-up included; the only workload through the
//     supervisor and runner, view builds, staticflow, relsec's interpreter
//     and user-mode paths, and taillats' replay.
//
// # Correctness
//
// An op fails if it returns an error or kernel.Stats.HandlerFaults advances
// during it; an eval-quick pass's cells fail if any experiment fails. The
// sim_digest hashes simulated state only (clock, core, kernel, cache and
// view-cache counters, boot-state digest, per-request cycles; for
// eval-quick the output bytes): a change that only speeds the simulator up
// leaves it unchanged. It is compared with digests.json (for eval-quick at
// seed 1 only), and passes that repeat exactly must reproduce it; a
// mismatch, or a traced run whose spans do not reconcile, fails every op.
//
// # End-to-end metrics (host time)
//
//   - ops_per_s: ops per host second (requests, cells, delivered cells) in
//     the fastest measured pass. Other tenants of the host only ever slow a
//     pass down, and on a shared host their memory traffic moves single
//     passes by 30%; the fastest pass is the steadiest run-to-run figure.
//     The record keeps the median and quartiles too.
//   - setup_s: seconds from harness.New to the first op (image build, boot
//     snapshot, views, clones and dials), median of the run's set-ups. Each
//     set-up starts from memory returned to the OS, as a fresh process does.
//   - peak_rss_mb: the process's peak resident set.
//
// Simulated-time model values (model.kcycles_per_op.<scheme>,
// model.overhead.<scheme> over UNSAFE) are printed and recorded, not gated:
// the sim_digest pins them. The model is unvalidated against hardware; no
// error figure is given.
//
// # Per-layer metrics (--trace 1) and the end-to-end metric each moves
//
// A traced run measures half its time untraced, then installs the policy
// decorators, records spans and takes a CPU profile for the other half. A
// layer a workload does not reach reports 0.
//
//   - harness.new_ms, harness.boot_ms (image build, boot snapshot) →
//     setup_s @ keepalive-paper; harness.views_ms → setup_s @ keepalive and
//     ops_per_s @ eval-quick; apps.dial_ms (clones and dials) → setup_s @
//     keepalive.
//   - apps.request_us.p50/.p99 → ops_per_s @ keepalive*;
//     harness.clone_us.p50/.p99 and lebench.cell_ms.<test> → ops_per_s @
//     lebench-churn; harness.exp_s.<experiment> → ops_per_s @ eval-quick.
//   - cpu.sim_mips and cpu.sim_mips.<scheme> (committed Minst per host
//     second in that scheme's batches, fastest untraced pass; every run
//     records them) → ops_per_s @ keepalive*.
//   - schemes.consult_ns, .consult_share, .consults_per_kinst and
//     .block_ratio per scheme (decorator: every consult counted, one in 64
//     timed); viewcache.dsv/isv.hit_rate and viewcache.refills_per_kinst →
//     ops_per_s @ keepalive-paper and keepalive.
//   - cpu.host_ns_per_inst.<scheme> ((batch time − policy time) / insts),
//     cpu.insts_per_op, cpu.*_per_kinst, bbcache.threaded_share,
//     .hit_rate, .chain_share → ops_per_s @ keepalive.
//   - cache.l1i/l1d/l2.hit_rate, cache.accesses_per_kinst → ops_per_s @
//     keepalive vs keepalive-paper.
//   - vmm.tlb.hit_rate, vmm.tlb.misses_per_op → ops_per_s @ keepalive (hit
//     side) and lebench-churn (miss side).
//   - kernel.syscalls_per_op, .page_faults_per_op, .ctx_switches_per_op,
//     .host_us_per_syscall → ops_per_s @ lebench-churn.
//   - prof.flat_pct.<group>: the traced half's CPU profile, flat samples
//     grouped by package (garbage collection and allocation charged to the
//     runtime), summing to 100; the only host-time attribution for
//     dispatch, L0, the lookaside and the TLB, which have no counters.
//   - go.alloc_bytes_per_op, go.gc_per_kop → peak_rss_mb and ops_per_s @
//     lebench-churn and eval-quick.
//   - trace.overhead_pct: traced vs untraced ops_per_s (fastest passes).
//
// Spans (workload → set-up steps → pass → op, and clone + run inside a
// lebench cell) are kept in memory and written to
// <out>/<workload>-seed<N>.spans.jsonl at exit, the profile beside them.
// Self time is a span's length minus its children and the policy time
// charged to it; with the policy time as a layer of its own, the self
// times sum to the root span exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: simbench compare A B   (runs.jsonl files or directories holding one)")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, "BENCHMARK.json", os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	c := config{setupReps: 9, minPasses: 3}
	flag.StringVar(&c.workload, "workload", "", "keepalive, keepalive-paper, lebench-churn or eval-quick")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/runs", "directory for runs.jsonl, spans and profiles")
	flag.Parse()
	c.trace = *trace == 1
	if c.trace {
		c.minPasses = 2
	}
	if _, ok := findWorkload(c.workload); !ok || (*trace != 0 && *trace != 1) || c.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	rec, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	if err := save(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: saving the run:", err)
	}
	printSummary(os.Stdout, rec)
	names := endToEndNames
	if c.trace {
		names = perLayerNames()
	}
	b, err := json.Marshal(result(rec, names))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// result is the final line of output: the named metrics' reported values.
func result(rec *record, names []string) resultLine {
	r := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	for _, n := range names {
		s := rec.Metrics[n]
		r.Metrics[n] = valueUnit{s.Value, s.Unit}
	}
	return r
}

// save appends rec to dir/runs.jsonl and writes a traced run's spans and
// CPU profile beside it.
func save(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !rec.Trace {
		return nil
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed))
	if err := writeSpans(base+".spans.jsonl", rec.spans); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", rec.prof, 0o644)
}

// printSummary writes the human-readable lines that precede the result.
func printSummary(w io.Writer, rec *record) {
	verdict := "correct"
	if !rec.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(w, "simbench %s seed %d trace %v: %d measured passes, %d ops, %d failed, sim_digest %s, %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Passes, rec.Attempted, rec.Failed, rec.Digest, verdict)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	for _, n := range sortedKeys(rec.Metrics) {
		s := rec.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s [p25 %.6g, p75 %.6g, n=%d]\n", n, s.Value, s.Unit, s.P25, s.P75, s.N)
	}
	for _, n := range sortedKeys(rec.Model) {
		fmt.Fprintf(w, "  %-36s %14.6g (simulated; not gated)\n", n, rec.Model[n])
	}
}
