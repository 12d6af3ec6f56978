package repro

// Golden-value regression tests: the simulation is fully deterministic, so
// key experiment outputs are pinned (with tolerance bands where float
// accumulation order could shift) to catch unintended behaviour changes in
// future refactors. Bands are intentionally loose — they assert the
// *conclusions*, not the third decimal.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/schemes"
)

func withinBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f outside [%.3f, %.3f]", name, got, lo, hi)
	}
}

func TestGoldenQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second regression run")
	}
	hh := harness.New(harness.QuickOptions())

	// Attack surface (Table 8.1 shape at quick scale).
	rows81, err := hh.Table81()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows81 {
		withinBand(t, r.Workload+"/static-reduction", r.StaticPct, 55, 90)
		withinBand(t, r.Workload+"/dynamic-reduction", r.DynamicPct, 85, 99)
	}

	// Gadget blocking (Table 8.2): dynamic ISVs block most, ISV++ all.
	rows82, _, err := hh.Table82()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows82 {
		for ch := 0; ch < 3; ch++ {
			withinBand(t, r.Workload+"/ISV-blocked", r.Blocked[1][ch], 70, 100)
			if r.Blocked[2][ch] != 100 {
				t.Errorf("%s: ISV++ blocked %.1f%%, want 100%%", r.Workload, r.Blocked[2][ch])
			}
		}
	}

	// Scheme ordering (Fig 9.2): UNSAFE < Perspective < DOM/STT < FENCE.
	le, err := hh.Fig92()
	if err != nil {
		t.Fatal(err)
	}
	avg := harness.SchemeAverages(le)
	if !(avg[schemes.Perspective] < avg[schemes.DOM] &&
		avg[schemes.DOM] < avg[schemes.Fence]) {
		t.Errorf("scheme ordering broken: P=%.3f DOM=%.3f FENCE=%.3f",
			avg[schemes.Perspective], avg[schemes.DOM], avg[schemes.Fence])
	}
	withinBand(t, "FENCE-avg", avg[schemes.Fence], 1.15, 1.8)
	withinBand(t, "PERSPECTIVE-avg", avg[schemes.Perspective], 1.0, 1.15)

	// select/poll remain FENCE's blow-up cases.
	for _, c := range le {
		if c.Scheme == schemes.Fence && (c.Test == "poll" || c.Test == "select") {
			withinBand(t, "FENCE/"+c.Test, c.Normalized, 2.0, 6.0)
		}
	}

	// Kasper speedup (Fig 9.1) stays in a sane band.
	rows91, err := hh.Fig91()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows91 {
		withinBand(t, r.Workload+"/speedup", r.Speedup, 1.2, 5.0)
	}
}
