package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/schemes"
)

func TestReconcileSumsToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "workload", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "setup", Start: 10, End: 110},
		{ID: 3, Parent: 2, Name: "harness.new", Start: 20, End: 70},
		{ID: 4, Parent: 1, Name: "pass", Start: 200, End: 900},
		{ID: 5, Parent: 4, Name: "apps.request", Op: 1, Start: 210, End: 500, PolicyNS: 90},
		{ID: 6, Parent: 4, Name: "apps.request", Op: 2, Start: 500, End: 880, PolicyNS: 7},
	}
	self, root, err := reconcile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if root != 1000 || sum != root {
		t.Fatalf("Σ self = %d, root = %d, want both 1000", sum, root)
	}
	want := map[string]int64{
		"workload": 1000 - 100 - 700, "setup": 100 - 50, "harness.new": 50,
		"pass": 700 - 290 - 380, "apps.request": 290 - 90 + 380 - 7, policyLayer: 97,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}

	bad := map[string][]span{
		"unended":        {{ID: 1, Name: "workload", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "pass", Start: 1, End: -1}},
		"orphan":         {{ID: 1, Name: "workload", Start: 0, End: 10}, {ID: 2, Parent: 7, Name: "pass", Start: 1, End: 2}},
		"outside parent": {{ID: 1, Name: "workload", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "pass", Start: 5, End: 20}},
		"over-charged":   {{ID: 1, Name: "workload", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "op", Start: 1, End: 5, PolicyNS: 9}},
		"two roots":      {{ID: 1, Name: "workload", Start: 0, End: 10}, {ID: 2, Name: "workload", Start: 0, End: 10}},
	}
	for name, s := range bad {
		if _, _, err := reconcile(s); err == nil {
			t.Errorf("%s: reconcile accepted a broken tree", name)
		}
	}
}

func TestFlatSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := flatShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range profGroups {
		sum += shares[g]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100 (x=%v)", sum, x)
	}
}

func TestSampleGroup(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cpu.(*Core).runThreaded"}, "cpu"},
		{[]string{"repro/internal/predict.(*Predictor).Predict", "repro/internal/cpu.(*Core).Run"}, "cpu"},
		{[]string{"repro/internal/dsv.(*Dir).Check"}, "viewcache"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/kernel.(*Kernel).Syscall"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime.gc"},
		{[]string{"repro/internal/lebench.forkIter"}, "other"},
		{[]string{"runtime.futex"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := sampleGroup(c.stack); got != c.want {
			t.Errorf("sampleGroup(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestDecorateKeepsPolicyShape(t *testing.T) {
	clock := &newConsultClocks()[0]
	if p, tp := decorate(cpu.AllowAll{}, clock); tp != nil {
		t.Error("UNSAFE got a decorator")
	} else if _, ok := p.(cpu.AllowAll); !ok {
		t.Errorf("UNSAFE became %T", p)
	}
	for _, kind := range []schemes.Kind{schemes.Fence, schemes.DOM, schemes.STT, schemes.Perspective} {
		inner := schemes.New(kind, nil, nil)
		p, tp := decorate(inner, clock)
		if tp == nil {
			t.Fatalf("%v: not decorated", kind)
		}
		_, innerGate := inner.(cpu.TransientStoreGate)
		_, outerGate := p.(cpu.TransientStoreGate)
		if innerGate != outerGate {
			t.Errorf("%v: TransientStoreGate %v before decorating, %v after", kind, innerGate, outerGate)
		}
		if p.Name() != inner.Name() {
			t.Errorf("%v: name %q, want %q", kind, p.Name(), inner.Name())
		}
	}
}

// fleetSchemeDigests runs the small keepalive set-up and one pass, and
// digests each scheme's machines.
func fleetSchemeDigests(t *testing.T, traced bool) [nSchemes]uint64 {
	t.Helper()
	c := &config{workload: "keepalive", seed: 1, trace: traced, small: true}
	w, _ := findWorkload("keepalive")
	tr := newTracer(traced)
	d, err := w.setup(c, tr, 0, map[string]time.Duration{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.release()
	p := &pass{rng: rand.New(rand.NewSource(1)), tr: tr, traced: traced, nextOp: new(int64)}
	if err := d.pass(p); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%d of %d requests failed", p.failed, p.ops)
	}
	var out [nSchemes]uint64
	for si := range out {
		h := fnv.New64a()
		for _, m := range d.(*fleet).ms {
			if m.scheme == si {
				hashMachine(h, m.k)
				hashWords(h, m.cycles)
			}
		}
		out[si] = h.Sum64()
	}
	return out
}

// The decorator may only add host time: every scheme's simulated state
// must come out the same with and without it.
func TestDecoratorLeavesSimulationUnchanged(t *testing.T) {
	plain, traced := fleetSchemeDigests(t, false), fleetSchemeDigests(t, true)
	for si, n := range schemeNames {
		if plain[si] != traced[si] {
			t.Errorf("%s: sim digest %016x untraced, %016x traced", n, plain[si], traced[si])
		}
	}
}

func smallRun(t *testing.T, workload string, seed int64, trace bool) *record {
	t.Helper()
	c := &config{workload: workload, seed: seed, seconds: 0.001, trace: trace, small: true, setupReps: 1, minPasses: 1}
	rec, err := run(c)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Correct || len(rec.Problems) > 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d/%d problems=%v", workload, seed, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
	}
	return rec
}

// TestSmoke runs every workload at its small size and checks the result
// against BENCHMARK.json and the committed small digests. All but
// eval-quick, whose registry pass dominates the test's time, run traced so
// their spans must reconcile.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchFile
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	if !sameSet(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEndNames)
	}
	if !sameSet(layer, perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer and the program's per-layer names differ")
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if !sameSet(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", listed, names)
	}

	digests := map[string]string{}
	for _, w := range workloads {
		traced := w.name != "eval-quick"
		rec := smallRun(t, w.name, 1, traced)
		digests[w.name] = rec.Digest
		want := bf.EndToEnd
		if traced {
			want = append(want, bf.PerLayer...)
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range bf.EndToEnd {
			if v := rec.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v)
			}
		}
	}
	for _, w := range []string{"keepalive", "lebench-churn"} {
		if got := smallRun(t, w, 2, false).Digest; got != digests[w] {
			t.Errorf("%s: seed 2 digested %s, seed 1 %s", w, got, digests[w])
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 5, 7], n=4) == [1.0, 5.0, 7.0]
	if q1, _, q3 := quartiles([]float64{7, 1, 5}); q1 != 1 || q3 != 7 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 7", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	up := benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{98, 99, 97, 98, 98}, "ok"},
		{[]float64{80, 81, 79, 80, 80}, "worse"},
		{[]float64{60, 100, 140, 95, 105}, "unresolved"},
		{[]float64{120, 180, 150, 170, 130}, "ok"}, // wide but better on every run
	}
	for _, c := range cases {
		if got, _ := verdict(up, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
