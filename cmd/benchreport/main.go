// Command benchreport runs the host-performance benchmark layer and writes
// BENCH_hostperf.json, the perf trajectory future PRs regress against.
//
// Three measurements go into the report:
//
//  1. micro: the per-package Go benchmarks (cache access, vmm translate,
//     cpu issue loop, kernel syscall round-trip) via `go test -bench`,
//     parsed into name → ns/op, B/op, allocs/op.
//  2. end_to_end: a supervised `-exp all` run at a fixed worker count,
//     reported as wall seconds and experiment cells per second — in
//     aggregate, per experiment, and over the stable experiment subset
//     whose cells/sec series is comparable across PRs.
//  3. sim_mips: a syscall-storm probe on one machine, reporting simulated
//     (committed) instructions per host second, plus a `pprof -top -cum`
//     hot-functions table from a CPU profile of the same storm, looped on
//     one machine that is built and booted before profiling starts.
//
// All numbers are host-side only; nothing here affects simulated output.
//
// Usage:
//
//	benchreport                         # full report, ~1 min
//	benchreport -benchtime 10x -out -   # quick, to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/schemes"
)

// Report is the BENCH_hostperf.json schema. Additive changes only: perf
// dashboards and regression checks key on these names.
type Report struct {
	Schema    int            `json:"schema"`
	GoVersion string         `json:"go_version"`
	Benchtime string         `json:"benchtime"`
	Micro     []Micro        `json:"micro"`
	EndToEnd  *EndToEnd      `json:"end_to_end,omitempty"`
	SimProbe  *SimProbe      `json:"sim_probe,omitempty"`
	Taillats  *TaillatsProbe `json:"taillats_probe,omitempty"`
	// HotFunctions is the top of `go tool pprof -top -cum` over a CPU
	// profile of the sim probe's drive loop: where the issue loop actually
	// spends host time, committed alongside the numbers so a perf PR's
	// before/after can be read from the diff.
	HotFunctions []HotFunc `json:"hot_functions,omitempty"`
}

// HotFunc is one profile frame, ordered by cumulative share.
type HotFunc struct {
	Function string  `json:"function"`
	FlatPct  float64 `json:"flat_pct"`
	CumPct   float64 `json:"cum_pct"`
}

// Micro is one Go benchmark result.
type Micro struct {
	Name        string  `json:"name"` // package/BenchmarkName
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// EndToEnd is the supervised full-experiment run. The aggregate cells/sec
// stopped being comparable across PRs when the taillats experiment joined
// the registry (one of its cells replays ≥10⁵ requests where a grid cell
// runs one workload), so the stable_* fields rerun the arithmetic over the
// pre-taillats experiment subset — that series is continuous with the old
// cells_per_sec — and per_experiment breaks the wall time down so future
// registry growth can be normalized out the same way. See EXPERIMENTS.md
// ("Host-performance methodology").
type EndToEnd struct {
	Jobs        int     `json:"jobs"`
	Experiments int     `json:"experiments"`
	Cells       uint64  `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// Stable subset: the registry minus stableExclude, measured as its own
	// supervised pass within the same repeat.
	StableCells       uint64      `json:"stable_cells"`
	StableWallSeconds float64     `json:"stable_wall_seconds"`
	StableCellsPerSec float64     `json:"stable_cells_per_sec"`
	PerExperiment     []ExpTiming `json:"per_experiment"`
}

// ExpTiming is one experiment's share of the end-to-end wall time (from the
// fastest repeat).
type ExpTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Stable      bool    `json:"stable"`
}

// stableExclude names experiments outside the stable cells/sec denominator:
// added after the original baseline with a per-cell cost so different that
// including them breaks the series (taillats: 10⁵-request replay per cell;
// staticflow: whole-image fixpoint plus a relsec verification sweep). Their
// wall time is still recorded under per_experiment.
var stableExclude = map[string]bool{"taillats": true, "staticflow": true}

// SimProbe is the simulated-instruction throughput measurement.
type SimProbe struct {
	SimInsts    uint64  `json:"sim_insts"`
	WallSeconds float64 `json:"wall_seconds"`
	SimMIPS     float64 `json:"sim_mips"`
	// ThreadedShare is the fraction of the probe's committed instructions
	// retired from the pre-decoded program (the rest were dispatched one
	// op at a time: BB-cache misses, user code).
	// BBHitRate is decoded-block lookups that hit, cumulative since boot.
	ThreadedShare float64 `json:"threaded_share"`
	BBHitRate     float64 `json:"bb_hit_rate"`
}

// TaillatsProbe times a fixed UNSAFE open-loop fleet run (calibration probes
// plus a 10⁵-request replay per app), reporting replayed requests per host
// second — the taillats engine's figure of merit.
type TaillatsProbe struct {
	Requests    uint64  `json:"requests"`
	WallSeconds float64 `json:"wall_seconds"`
	ReqPerSec   float64 `json:"req_per_sec"`
}

var benchPkgs = []string{
	"./internal/cache/", "./internal/vmm/", "./internal/cpu/", "./internal/kernel/",
	"./internal/apps/", "./internal/loadgen/", "./internal/staticflow/",
}

func main() {
	// Match perspective-sim's GC tuning so the end-to-end measurement
	// reflects what the CLI actually ships.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	out := flag.String("out", "BENCH_hostperf.json", "output path (- for stdout)")
	benchtime := flag.String("benchtime", "", "go test -benchtime passthrough (empty = go default)")
	jobs := flag.Int("jobs", 1, "worker-pool size for the end-to-end run")
	skipE2E := flag.Bool("skip-e2e", false, "skip the -exp all end-to-end measurement")
	diff := flag.String("diff", "", "compare a fresh micro run against this committed report instead of writing one; exit 1 on >25% ns/op regression")
	namesOnly := flag.Bool("diff-names-only", false, "with -diff: check benchmark-name coverage only (deterministic smoke, no timing gate)")
	flag.Parse()

	if *diff != "" {
		if err := runDiff(*diff, *benchtime, *namesOnly); err != nil {
			fatal(err)
		}
		return
	}

	// Record the benchtime actually in effect: an empty flag means the go
	// tool's default (1s per benchmark), and the report must say so rather
	// than carry an empty string that readers can't interpret.
	bt := *benchtime
	if bt == "" {
		bt = "1s"
	}
	rep := Report{Schema: 1, GoVersion: runtime.Version(), Benchtime: bt}

	micro, err := runMicro(*benchtime, microRepeats)
	if err != nil {
		fatal(err)
	}
	rep.Micro = micro

	if !*skipE2E {
		e2e, probe, err := runEndToEnd(*jobs)
		if err != nil {
			fatal(err)
		}
		rep.EndToEnd = e2e
		rep.SimProbe = probe
		tl, err := bestTaillatsProbe()
		if err != nil {
			fatal(err)
		}
		rep.Taillats = tl
		hot, err := hotFunctions()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport: hot-functions profile skipped:", err)
		}
		rep.HotFunctions = hot
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d benchmarks", *out, len(rep.Micro))
	if rep.EndToEnd != nil {
		fmt.Printf(", %.2f cells/sec (stable subset %.2f), %.2f sim MIPS (threaded share %.0f%%, bb hit rate %.1f%%)",
			rep.EndToEnd.CellsPerSec, rep.EndToEnd.StableCellsPerSec, rep.SimProbe.SimMIPS,
			100*rep.SimProbe.ThreadedShare, 100*rep.SimProbe.BBHitRate)
	}
	if rep.Taillats != nil {
		fmt.Printf(", %.1fM replayed req/sec", rep.Taillats.ReqPerSec/1e6)
	}
	fmt.Println()
}

// regressionTolerance is the allowed fresh/committed ns/op ratio before
// `-diff` fails: micro benchmarks on a shared host jitter, so the gate is
// deliberately loose (25%) and meant to catch structural regressions, not
// scheduling noise.
const regressionTolerance = 1.25

// diffRetries is how many times an over-threshold benchmark is re-measured
// before the gate fails. A structural regression reproduces on every
// re-run; a shared-host load spike (which can inflate a whole measurement
// pass by 50%) does not, so confirm-by-retry keeps the 25% gate meaningful
// without loosening it.
const diffRetries = 2

// runDiff re-runs the micro benchmarks and compares them name-by-name
// against a committed report. namesOnly skips the timing gate and only
// verifies that every committed benchmark still exists — a deterministic
// smoke check cheap enough for `make check`.
func runDiff(path, benchtime string, namesOnly bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Micro) == 0 {
		return fmt.Errorf("%s: no micro benchmarks to diff against", path)
	}
	// The names-only smoke doesn't gate on timing, so one repeat suffices.
	repeats := microRepeats
	if namesOnly {
		repeats = 1
	}
	fresh, err := runMicro(benchtime, repeats)
	if err != nil {
		return err
	}
	freshBy := make(map[string]Micro, len(fresh))
	for _, m := range fresh {
		freshBy[m.Name] = m
	}

	var missing []string
	for _, m := range base.Micro {
		if _, ok := freshBy[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	overThreshold := func() []string {
		var out []string
		for _, m := range base.Micro {
			f, ok := freshBy[m.Name]
			if !ok || m.NsPerOp <= 0 {
				continue
			}
			if f.NsPerOp/m.NsPerOp > regressionTolerance {
				out = append(out, m.Name)
			}
		}
		return out
	}

	var regressed []string
	if !namesOnly {
		// Confirm-by-retry: re-measure only the over-threshold benchmarks
		// and fold the minimum in; fail on what still exceeds the gate.
		regressed = overThreshold()
		for attempt := 0; len(regressed) > 0 && attempt < diffRetries; attempt++ {
			fmt.Printf("benchdiff: re-measuring %d over-threshold benchmark(s) to rule out host noise: %v\n",
				len(regressed), regressed)
			again, err := runMicro(benchtime, microRepeats, regressed...)
			if err != nil {
				return err
			}
			for _, m := range again {
				if prev, ok := freshBy[m.Name]; !ok || m.NsPerOp < prev.NsPerOp {
					freshBy[m.Name] = m
				}
			}
			regressed = overThreshold()
		}
		for _, m := range base.Micro {
			f, ok := freshBy[m.Name]
			if !ok || m.NsPerOp <= 0 {
				continue
			}
			ratio := f.NsPerOp / m.NsPerOp
			status := "ok"
			if ratio > regressionTolerance {
				status = "REGRESSED"
			}
			fmt.Printf("%-55s %12.1f -> %12.1f ns/op  %+6.1f%%  %s\n",
				m.Name, m.NsPerOp, f.NsPerOp, 100*(ratio-1), status)
		}
	}
	if namesOnly {
		fmt.Printf("benchdiff: %d committed benchmark(s), %d present\n",
			len(base.Micro), len(base.Micro)-len(missing))
	}
	// The committed taillats probe rides the same gate: the replay engine's
	// throughput is a first-class perf deliverable, and a structural
	// slowdown there won't show up in any micro benchmark's ns/op.
	if !namesOnly && base.Taillats != nil && base.Taillats.ReqPerSec > 0 {
		f, err := bestTaillatsProbe()
		if err != nil {
			return err
		}
		for attempt := 0; base.Taillats.ReqPerSec/f.ReqPerSec > regressionTolerance &&
			attempt < diffRetries; attempt++ {
			fmt.Printf("benchdiff: re-measuring taillats probe to rule out host noise\n")
			again, err := bestTaillatsProbe()
			if err != nil {
				return err
			}
			if again.ReqPerSec > f.ReqPerSec {
				f = again
			}
		}
		ratio := base.Taillats.ReqPerSec / f.ReqPerSec
		status := "ok"
		if ratio > regressionTolerance {
			status = "REGRESSED"
			regressed = append(regressed, "taillats_probe")
		}
		fmt.Printf("%-55s %12.2f -> %12.2f Mreq/s %+6.1f%%  %s\n",
			"taillats_probe", base.Taillats.ReqPerSec/1e6, f.ReqPerSec/1e6, 100*(ratio-1), status)
	}
	if len(missing) > 0 {
		return fmt.Errorf("%d committed benchmark(s) missing from fresh run: %v", len(missing), missing)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed >%d%% ns/op after %d re-measurement(s): %v",
			len(regressed), int(100*(regressionTolerance-1)), diffRetries, regressed)
	}
	return nil
}

var (
	pkgRe   = regexp.MustCompile(`^pkg:\s+(\S+)`)
	benchRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	memRe   = regexp.MustCompile(`([0-9.]+) B/op\s+([0-9.]+) allocs/op`)
)

// microRepeats is the -count passed to timing-sensitive micro runs; each
// benchmark's ns/op is the minimum across repeats. A shared host's transient
// noise only ever inflates a measurement, so min-of-N on both sides of the
// diff is what keeps the 25% gate from flapping on load spikes.
const microRepeats = 3

// runMicro shells out to `go test -bench` (the toolchain is a build-time
// dependency of this repo anyway) and parses the standard output format,
// folding `count` repeats of each benchmark to the per-name minimum. With
// `only` names (the "pkg/BenchmarkFunc[/sub]" report form), the run is
// restricted to those benchmarks and their packages.
func runMicro(benchtime string, count int, only ...string) ([]Micro, error) {
	bench, pkgs := ".", benchPkgs
	if len(only) > 0 {
		fns, ps := map[string]bool{}, map[string]bool{}
		for _, name := range only {
			parts := strings.SplitN(name, "/", 3)
			if len(parts) < 2 {
				continue
			}
			ps["./internal/"+parts[0]+"/"] = true
			fns[parts[1]] = true
		}
		var fnAlt, pkgList []string
		for fn := range fns {
			fnAlt = append(fnAlt, fn)
		}
		for p := range ps {
			pkgList = append(pkgList, p)
		}
		sort.Strings(fnAlt)
		sort.Strings(pkgList)
		bench = "^(" + strings.Join(fnAlt, "|") + ")$"
		pkgs = pkgList
	}
	args := []string{"test", "-run=^$", "-bench=" + bench, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime="+benchtime)
	}
	if count > 1 {
		args = append(args, fmt.Sprintf("-count=%d", count))
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	var micro []Micro
	byName := map[string]int{}
	pkg := ""
	for _, line := range strings.Split(string(outb), "\n") {
		if m := pkgRe.FindStringSubmatch(line); m != nil {
			pkg = strings.TrimPrefix(m[1], "repro/internal/")
			continue
		}
		m := benchRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		mc := Micro{Name: pkg + "/" + m[1], NsPerOp: ns}
		if mm := memRe.FindStringSubmatch(m[3]); mm != nil {
			mc.BytesPerOp, _ = strconv.ParseFloat(mm[1], 64)
			mc.AllocsPerOp, _ = strconv.ParseFloat(mm[2], 64)
		}
		if i, ok := byName[mc.Name]; ok {
			if mc.NsPerOp < micro[i].NsPerOp {
				micro[i] = mc
			}
			continue
		}
		byName[mc.Name] = len(micro)
		micro = append(micro, mc)
	}
	if len(micro) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from go test output")
	}
	return micro, nil
}

// e2eRepeats is how many full passes the wall-clock measurements take; the
// fastest is reported. On a loaded single-core host individual runs jitter
// by tens of percent from scheduling bursts, and the minimum is the
// standard noise-robust estimator for "how fast does this code go" (noise
// only ever adds time).
const e2eRepeats = 3

// runEndToEnd times a supervised full-experiment pass (checkpointing
// disabled: this is a measurement, not a resumable run), then boots one
// machine for a syscall-storm MIPS probe. Both take the best of
// e2eRepeats passes.
//
// Each repeat runs the registry in two supervised groups — the stable
// subset, then the stableExclude experiments — so the stable group's cells
// and wall time are measured directly rather than inferred, and its shared
// harness sees the same experiment mix the original baseline did.
func runEndToEnd(jobs int) (*EndToEnd, *SimProbe, error) {
	opt := harness.QuickOptions()
	opt.Jobs = jobs
	var stable, excluded []harness.Experiment
	for _, e := range harness.Experiments() {
		if stableExclude[e.Name] {
			excluded = append(excluded, e)
		} else {
			stable = append(stable, e)
		}
	}
	sup := harness.SupervisorOptions{Retries: 1}
	var e2e *EndToEnd
	for i := 0; i < e2eRepeats; i++ {
		cells0 := harness.CellsRun()
		start := time.Now()
		results, err := harness.SuperviseExperiments(opt, sup, stable, io.Discard)
		if err != nil {
			return nil, nil, fmt.Errorf("end-to-end run (stable subset): %w", err)
		}
		stableWall := time.Since(start).Seconds()
		stableCells := harness.CellsRun() - cells0
		exclResults, err := harness.SuperviseExperiments(opt, sup, excluded, io.Discard)
		if err != nil {
			return nil, nil, fmt.Errorf("end-to-end run (excluded subset): %w", err)
		}
		wall := time.Since(start).Seconds()
		if e2e == nil || wall < e2e.WallSeconds {
			cells := harness.CellsRun() - cells0
			e2e = &EndToEnd{
				Jobs:              jobs,
				Experiments:       len(results) + len(exclResults),
				Cells:             cells,
				WallSeconds:       wall,
				CellsPerSec:       float64(cells) / wall,
				StableCells:       stableCells,
				StableWallSeconds: stableWall,
				StableCellsPerSec: float64(stableCells) / stableWall,
			}
			e2e.PerExperiment = e2e.PerExperiment[:0]
			for _, r := range results {
				e2e.PerExperiment = append(e2e.PerExperiment,
					ExpTiming{Name: r.Name, WallSeconds: float64(r.DurationMS) / 1000, Stable: true})
			}
			for _, r := range exclResults {
				e2e.PerExperiment = append(e2e.PerExperiment,
					ExpTiming{Name: r.Name, WallSeconds: float64(r.DurationMS) / 1000})
			}
		}
	}

	var probe *SimProbe
	for i := 0; i < e2eRepeats; i++ {
		p, err := simProbe()
		if err != nil {
			return nil, nil, err
		}
		if probe == nil || p.WallSeconds < probe.WallSeconds {
			probe = p
		}
	}
	return e2e, probe, nil
}

// hotTopRe matches one `pprof -top` table row: flat, flat%, sum%, cum, cum%,
// then the function name (which may contain spaces in generic instantiations).
var hotTopRe = regexp.MustCompile(`^\s*\S+\s+([0-9.]+)%\s+[0-9.]+%\s+\S+\s+([0-9.]+)%\s+(.+?)\s*$`)

// hotFunctions CPU-profiles the sim probe's steady state and returns the top
// frames by cumulative share, via `go tool pprof -top -cum` (the toolchain is
// already a runtime dependency of runMicro). The machine is built and booted
// before the profiler starts, so image build and boot never enter the table.
// Failures are reported, not fatal: the profile section is diagnostics, and
// a report without it is still valid.
func hotFunctions() ([]HotFunc, error) {
	m, err := newProbeMachine()
	if err != nil {
		return nil, err
	}
	defer m.k.Release()
	f, err := os.CreateTemp("", "simprobe-*.pb.gz")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	// One drive pass is ~30 ms — far under the 100 Hz sampler's resolution.
	// Loop passes for ~2 s of profiled work so the table has real statistics.
	var probeErr error
	for start := time.Now(); time.Since(start) < 2*time.Second; {
		if _, probeErr = m.drive(); probeErr != nil {
			break
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if probeErr != nil {
		return nil, probeErr
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=24", f.Name())
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var hot []HotFunc
	for _, line := range strings.Split(string(outb), "\n") {
		m := hotTopRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// The driver scaffolding (main.*, runtime.main) carries 100% cum but
		// says nothing about the simulator; keep the frames that do.
		if strings.HasPrefix(m[3], "main.") || m[3] == "runtime.main" {
			continue
		}
		flat, _ := strconv.ParseFloat(m[1], 64)
		cum, _ := strconv.ParseFloat(m[2], 64)
		hot = append(hot, HotFunc{Function: m[3], FlatPct: flat, CumPct: cum})
		if len(hot) == 10 {
			break
		}
	}
	if len(hot) == 0 {
		return nil, fmt.Errorf("no frames parsed from pprof -top output")
	}
	return hot, nil
}

// probeMachine is the sim probe's machine: one process on a quick-scale
// boot, with a mapped user buffer and an open regular file.
type probeMachine struct {
	k       *kernel.Kernel
	p       *kernel.Task
	buf, fd uint64
}

// newProbeMachine builds the quick-scale kernel image, boots a machine on it
// and sets up the probe's process, buffer and file.
func newProbeMachine() (m *probeMachine, err error) {
	h := harness.New(harness.QuickOptions())
	k, err := h.BootMachine(kernel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			k.Release()
		}
	}()
	m = &probeMachine{k: k}
	if m.p, err = k.CreateProcess("probe"); err != nil {
		return nil, err
	}
	if m.buf, err = k.Syscall(m.p, kimage.NRMmap, 4096, 1); err != nil {
		return nil, err
	}
	if m.fd, err = k.Syscall(m.p, kimage.NROpen); err != nil {
		return nil, err
	}
	return m, nil
}

// drive runs one syscall storm (3000 rounds of getpid, rewind and a 256-byte
// write) and reports committed simulated instructions per host second.
func (m *probeMachine) drive() (*SimProbe, error) {
	k := m.k
	insts0 := k.Core.Stats.Insts
	threaded0 := k.Core.Stats.ThreadedInsts
	start := time.Now()
	for i := 0; i < 3000; i++ {
		if _, err := k.Syscall(m.p, kimage.NRGetpid); err != nil {
			return nil, err
		}
		k.Rewind(m.p, int(m.fd))
		if _, err := k.Syscall(m.p, kimage.NRWrite, m.fd, m.buf, 256); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start).Seconds()
	insts := k.Core.Stats.Insts - insts0
	sp := &SimProbe{SimInsts: insts, WallSeconds: wall, SimMIPS: float64(insts) / wall / 1e6}
	if s := &k.Core.Stats; insts > 0 {
		sp.ThreadedShare = float64(s.ThreadedInsts-threaded0) / float64(insts)
		if s.BBLookups > 0 {
			sp.BBHitRate = float64(s.BBHits) / float64(s.BBLookups)
		}
	}
	return sp, nil
}

// simProbe boots one machine on the quick-scale kernel image and drives one
// syscall storm on it, reporting committed simulated instructions per host
// second — the "simulated MIPS" figure of merit for the issue loop. Only
// the storm is timed.
func simProbe() (*SimProbe, error) {
	m, err := newProbeMachine()
	if err != nil {
		return nil, err
	}
	defer m.k.Release()
	return m.drive()
}

// taillatsProbe runs the UNSAFE slice of the open-loop fleet experiment at a
// fixed 10⁵-request cell size and reports replay throughput. One scheme only:
// this measures the engine (probe drive path + Lindley replay + digest), not
// the defenses.
func taillatsProbe() (*TaillatsProbe, error) {
	opt := harness.QuickOptions()
	opt.Schemes = []schemes.Kind{schemes.Unsafe}
	opt.TailRequests = 100_000
	opt.Jobs = 1
	h := harness.New(opt)
	start := time.Now()
	rep, err := h.TailLats()
	if err != nil {
		return nil, fmt.Errorf("taillats probe: %w", err)
	}
	wall := time.Since(start).Seconds()
	var reqs uint64
	for _, c := range rep.Cells {
		if c.Err != "" {
			return nil, fmt.Errorf("taillats probe: %v/%s: %s", c.Scheme, c.App, c.Err)
		}
		reqs += c.Requests
	}
	return &TaillatsProbe{Requests: reqs, WallSeconds: wall, ReqPerSec: float64(reqs) / wall}, nil
}

// bestTaillatsProbe takes the fastest of e2eRepeats probe passes, the same
// noise-robust estimator the other wall-clock measurements use.
func bestTaillatsProbe() (*TaillatsProbe, error) {
	var best *TaillatsProbe
	for i := 0; i < e2eRepeats; i++ {
		p, err := taillatsProbe()
		if err != nil {
			return nil, err
		}
		if best == nil || p.WallSeconds < best.WallSeconds {
			best = p
		}
	}
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
