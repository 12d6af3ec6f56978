// Command benchreport writes BENCH_hostperf.json, the host-performance
// ledger, and gates micro-benchmark regressions against it.
//
// The ledger has two sections:
//
//  1. micro: the per-package Go benchmarks (cache access, vmm translate,
//     cpu dispatch, kernel syscall round-trip, app drive path, open-loop
//     replay, static analysis) via `go test -bench`, parsed into
//     name → ns/op, B/op, allocs/op.
//  2. simbench: the record of one traced simbench run per workload in
//     simbenchWorkloads (`bash simbench/run.sh --workload W --seed 1
//     --trace 1`, see simbench/main.go): its verdict, the end-to-end
//     metrics (ops_per_s, setup_s, peak_rss_mb) and the per-layer ones the
//     workload reaches — sim-MIPS and policy-consult cost per scheme, wall
//     time of each experiment simbench times, flat profile share per
//     package. The run's spans and CPU profile stay in .bench_build/runs/.
//
// With -diff it writes nothing: it re-measures the micro benchmarks against
// a committed ledger and fails on a >25% ns/op regression that persists
// through re-measurement. Writing a ledger re-measures the same way any
// benchmark over 25% slower than the ledger it replaces, so one loaded pass
// cannot raise the baseline. `simbench compare` is the end-to-end
// comparison. All numbers are host-side only; nothing here affects
// simulated output.
//
// Usage, from the repository root:
//
//	benchreport                              # full ledger, a few minutes
//	benchreport -benchtime 10x -out -        # quick micro figures, to stdout
//	benchreport -diff BENCH_hostperf.json    # micro regression gate
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Report is the BENCH_hostperf.json schema. Schema goes up whenever a field
// changes meaning or goes away; schema 2 replaced schema 1's end_to_end,
// sim_probe, taillats_probe and hot_functions with the simbench section.
type Report struct {
	Schema    int     `json:"schema"`
	GoVersion string  `json:"go_version"`
	Benchtime string  `json:"benchtime"`
	Micro     []Micro `json:"micro"`
	// Simbench maps each workload in simbenchWorkloads to its traced run.
	Simbench map[string]SimbenchResult `json:"simbench"`
}

// Micro is one Go benchmark result.
type Micro struct {
	Name        string  `json:"name"` // package/BenchmarkName
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SimbenchResult is one traced simbench run's record (simbench/bench.go)
// trimmed to its verdict, sim_digest and metrics. Metrics holds only the
// metrics that read non-zero: a 0 means the workload never reaches that
// layer or the figure is below what one run resolves.
type SimbenchResult struct {
	Seed      int64                `json:"seed"`
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Digest    string               `json:"sim_digest"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simbenchWorkloads are the workloads the ledger records: keepalive times
// the steady committed path under every scheme, eval-quick the whole
// experiment registry as a reproducer runs it. simbenchSeed is their seed;
// simbenchOut, simbench's own default, is where each run appends its record
// to runs.jsonl and leaves its spans and profile.
var simbenchWorkloads = []string{"keepalive", "eval-quick"}

const (
	simbenchSeed = 1
	simbenchOut  = ".bench_build/runs"
)

var benchPkgs = []string{
	"./internal/cache/", "./internal/vmm/", "./internal/cpu/", "./internal/kernel/",
	"./internal/apps/", "./internal/loadgen/", "./internal/staticflow/",
}

func main() {
	out := flag.String("out", "BENCH_hostperf.json", "output path (- for stdout)")
	benchtime := flag.String("benchtime", "", "go test -benchtime passthrough (empty = go default)")
	diff := flag.String("diff", "", "compare a fresh micro run against this committed report instead of writing one; exit 1 on >25% ns/op regression")
	namesOnly := flag.Bool("diff-names-only", false, "with -diff: check benchmark-name coverage and the committed simbench results only (deterministic smoke, no timing gate)")
	flag.Parse()

	if *diff != "" {
		if err := runDiff(*diff, *benchtime, *namesOnly); err != nil {
			fatal(err)
		}
		return
	}

	micro, err := runMicro(*benchtime, microRepeats)
	if err != nil {
		fatal(err)
	}
	// A load window that inflated this pass must not become the baseline
	// that later -diff runs compare against: what came out over the gate
	// against the ledger being replaced is re-measured, as -diff does.
	if old, err := readReport(*out); err == nil {
		if _, err := confirm(old.Micro, micro, *benchtime); err != nil {
			fatal(err)
		}
	}
	// Record the benchtime actually in effect: an empty flag means the go
	// tool's default (1s per benchmark), and the report must say so rather
	// than carry an empty string that readers can't interpret.
	rep := Report{Schema: 2, GoVersion: runtime.Version(), Benchtime: cmp.Or(*benchtime, "1s"),
		Micro: micro, Simbench: map[string]SimbenchResult{}}
	for _, w := range simbenchWorkloads {
		if rep.Simbench[w], err = runSimbench(w); err != nil {
			fatal(err)
		}
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
	fmt.Printf("wrote %s: %d micro benchmarks, simbench %v\n", *out, len(rep.Micro), simbenchWorkloads)
}

// runSimbench runs one traced simbench pass over workload from the
// repository root, its output sent to stderr, and returns the record the
// run appended to simbenchOut/runs.jsonl with its zero metrics dropped. A
// run that is not correct, or that failed any op, is refused: the ledger
// records only runs whose sim_digest held.
func runSimbench(workload string) (SimbenchResult, error) {
	cmd := exec.Command("bash", "simbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(simbenchSeed), "--trace", "1", "--out", simbenchOut)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return SimbenchResult{}, fmt.Errorf("simbench %s: %w", workload, err)
	}
	path := filepath.Join(simbenchOut, "runs.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		return SimbenchResult{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var rec struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
		SimbenchResult
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return SimbenchResult{}, fmt.Errorf("%s: last record: %w", path, err)
	}
	res := rec.SimbenchResult
	if rec.Workload != workload || res.Seed != simbenchSeed || !rec.Trace {
		return res, fmt.Errorf("%s: last record is %s seed %d trace %v, not this run", path, rec.Workload, res.Seed, rec.Trace)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("simbench %s: refusing a result with correct=%v, %d of %d ops failed",
			workload, res.Correct, res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		if m.Value == 0 {
			delete(res.Metrics, name)
		}
	}
	return res, nil
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

// confirm re-measures, up to diffRetries times, the benchmarks in fresh
// whose ns/op is over regressionTolerance × base's, keeps each one's
// minimum in fresh, and returns the names still over.
func confirm(base, fresh []Micro, benchtime string) ([]string, error) {
	at := make(map[string]int, len(fresh))
	for i, m := range fresh {
		at[m.Name] = i
	}
	over := func() []string {
		var out []string
		for _, m := range base {
			if i, ok := at[m.Name]; ok && m.NsPerOp > 0 && fresh[i].NsPerOp/m.NsPerOp > regressionTolerance {
				out = append(out, m.Name)
			}
		}
		return out
	}
	regressed := over()
	for attempt := 0; len(regressed) > 0 && attempt < diffRetries; attempt++ {
		fmt.Printf("benchreport: re-measuring %d over-threshold benchmark(s) to rule out host noise: %v\n",
			len(regressed), regressed)
		again, err := runMicro(benchtime, microRepeats, regressed...)
		if err != nil {
			return nil, err
		}
		for _, m := range again {
			if i, ok := at[m.Name]; ok && m.NsPerOp < fresh[i].NsPerOp {
				fresh[i] = m
			}
		}
		regressed = over()
	}
	return regressed, nil
}

func readReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	return r, err
}

// runDiff re-runs the micro benchmarks and compares them name-by-name
// against a committed report. The two name sets must match: a committed
// benchmark missing from the fresh run and a fresh one the report does not
// gate both fail. namesOnly skips the timing gate: it verifies the names and
// that the report holds a correct simbench result for every recorded
// workload — a deterministic smoke check cheap enough for `make check`.
func runDiff(path, benchtime string, namesOnly bool) error {
	base, err := readReport(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Micro) == 0 {
		return fmt.Errorf("%s: no micro benchmarks to diff against", path)
	}
	// The names-only smoke doesn't gate on timing, so one repeat suffices.
	repeats := microRepeats
	if namesOnly {
		for _, w := range simbenchWorkloads {
			if r, ok := base.Simbench[w]; !ok || !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s: no simbench result for workload %s with correct: true and failed: 0 (re-record with make bench)", path, w)
			}
		}
		repeats = 1
	}
	fresh, err := runMicro(benchtime, repeats)
	if err != nil {
		return err
	}
	// freshBy points into fresh, so it sees confirm's re-measurements.
	freshBy := make(map[string]*Micro, len(fresh))
	for i := range fresh {
		freshBy[fresh[i].Name] = &fresh[i]
	}
	var missing, ungated []string
	committed := make(map[string]bool, len(base.Micro))
	for _, m := range base.Micro {
		committed[m.Name] = true
		if freshBy[m.Name] == nil {
			missing = append(missing, m.Name)
		}
	}
	for _, m := range fresh {
		if !committed[m.Name] {
			ungated = append(ungated, m.Name)
		}
	}
	var problems []string
	if len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("committed benchmark(s) missing from the fresh run: %v", missing))
	}
	if len(ungated) > 0 {
		problems = append(problems, fmt.Sprintf("fresh benchmark(s) the ledger does not gate: %v", ungated))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %s", path, strings.Join(problems, "; "))
	}
	if namesOnly {
		fmt.Printf("benchdiff: %d benchmark(s) match the ledger, simbench results for %v correct\n",
			len(base.Micro), simbenchWorkloads)
		return nil
	}

	regressed, err := confirm(base.Micro, fresh, benchtime)
	if err != nil {
		return err
	}
	for _, m := range base.Micro {
		if m.NsPerOp <= 0 {
			continue
		}
		ratio := freshBy[m.Name].NsPerOp / m.NsPerOp
		status := "ok"
		if ratio > regressionTolerance {
			status = "REGRESSED"
		}
		fmt.Printf("%-55s %12.1f -> %12.1f ns/op  %+6.1f%%  %s\n",
			m.Name, m.NsPerOp, freshBy[m.Name].NsPerOp, 100*(ratio-1), status)
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
		var fns []string
		pkgs = nil
		for _, name := range only {
			pkg, rest, _ := strings.Cut(name, "/")
			fn, _, _ := strings.Cut(rest, "/")
			fns = append(fns, fn)
			if p := "./internal/" + pkg + "/"; !slices.Contains(pkgs, p) {
				pkgs = append(pkgs, p)
			}
		}
		bench = "^(" + strings.Join(fns, "|") + ")$"
	}
	args := []string{"test", "-run=^$", "-bench=" + bench, "-benchmem", "-count=" + strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime="+benchtime)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
