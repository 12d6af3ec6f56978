package harness

import (
	"io"
	"testing"

	"repro/internal/schemes"
)

// TestRunAllQuick runs the whole registry under the supervisor, with every
// per-cell budget trimmed as simbench's small eval-quick trims it, and fails
// on any experiment's error.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	opt := QuickOptions()
	opt.Schemes = []schemes.Kind{schemes.Unsafe, schemes.Perspective}
	opt.LEBenchIters = 1
	opt.AppRequests = 4
	opt.TailRequests = 1000
	opt.TailFleet = 1
	opt.TailProbes = 8
	results, err := Supervise(opt, SupervisorOptions{Retries: 1}, io.Discard)
	if len(results) != len(Experiments()) {
		t.Fatalf("supervised %d experiments, registry has %d", len(results), len(Experiments()))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Name, r.Err)
		}
	}
	if err != nil {
		t.Errorf("Supervise: %v", err)
	}
}

func TestSchemeAverages(t *testing.T) {
	cells := []LEBenchCell{
		{Test: "a", Scheme: 0, Normalized: 1.0},
		{Test: "b", Scheme: 0, Normalized: 3.0},
		{Test: "a", Scheme: 1, Normalized: 0}, // no baseline yet: skipped
	}
	avg := SchemeAverages(cells)
	if avg[0] != 2.0 {
		t.Errorf("avg = %f", avg[0])
	}
	if _, ok := avg[1]; ok {
		t.Error("zero cells contributed")
	}
}

func TestViewsForCachedAndOrdered(t *testing.T) {
	h := New(QuickOptions())
	w := h.Workloads()
	if len(w) != 5 || w[0].Name != "LEBench" {
		t.Fatalf("workloads = %v", w)
	}
	v1, err := h.ViewsFor(w[1])
	if err != nil {
		t.Fatal(err)
	}
	v2, err := h.ViewsFor(w[1])
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("views not cached")
	}
	// Ordering invariants: ISV++ ⊆ ISV ⊆ (roughly) static scope.
	if v1.Plus.NumFuncs() > v1.Dynamic.NumFuncs() {
		t.Error("ISV++ larger than ISV")
	}
	if v1.Dynamic.NumFuncs() >= v1.Static.NumFuncs() {
		t.Error("dynamic not smaller than static")
	}
}

func TestTable81Bands(t *testing.T) {
	h := New(QuickOptions())
	rows, err := h.Table81()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DynamicPct <= r.StaticPct {
			t.Errorf("%s: dynamic reduction (%.1f) not stronger than static (%.1f)",
				r.Workload, r.DynamicPct, r.StaticPct)
		}
		if r.DynamicPct < 85 {
			t.Errorf("%s: dynamic reduction only %.1f%%", r.Workload, r.DynamicPct)
		}
	}
}

func TestFig91SpeedupsPositive(t *testing.T) {
	h := New(QuickOptions())
	rows, err := h.Fig91()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2f <= 1", r.Workload, r.Speedup)
		}
	}
}

func TestPoCMatrixVerdicts(t *testing.T) {
	h := New(QuickOptions())
	rows, err := h.PoCMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Scheme.IsPerspective() && !r.Blocked {
			t.Errorf("%s leaked %d bytes under %v", r.Attack, r.Leaked, r.Scheme)
		}
		if !r.Scheme.IsPerspective() && r.Leaked == 0 {
			t.Errorf("%s leaked nothing on UNSAFE", r.Attack)
		}
	}
}

func TestHWCompare(t *testing.T) {
	le := []LEBenchCell{{Test: "a", Scheme: 1, Normalized: 1.5}}
	ap := []AppCell{{App: "x", Scheme: 1, NormThroughput: 0.9}}
	rows := HWCompare(le, ap, []schemes.Kind{1})
	if len(rows) != 1 || rows[0].MicroOverhead < 49 || rows[0].MacroNorm != 0.9 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestISVCacheSweepMonotonicIsh(t *testing.T) {
	h := New(QuickOptions())
	rows, err := h.ISVCacheSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Bigger caches never hit less (same ways).
	var prev float64
	for _, r := range rows[:5] {
		if r.HitRate+1e-9 < prev {
			t.Errorf("hit rate dropped with size: %+v", rows)
		}
		prev = r.HitRate
	}
}
