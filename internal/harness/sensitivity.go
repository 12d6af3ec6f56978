package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/schemes"
)

// SensitivityRow holds the §9.2 per-workload sensitivity measurements.
type SensitivityRow struct {
	Workload        string
	ISVHitRate      float64
	DSVHitRate      float64
	SlabUtil        float64 // secure slab utilization (slabtop metric)
	BaseSlabUtil    float64 // baseline allocator utilization
	PageReturnPct   float64 // % of slab frees causing a page return
	PageReturnsPS   float64 // page returns per simulated second
	UnknownDeltaPct float64 // overhead attributable to unknown-alloc blocking
}

// Sensitivity runs the §9.2 analyses: view-cache hit rates, the
// unknown-allocation ablation, slab fragmentation, and domain-reassignment
// rates. Each workload's three-run ablation is one parallel cell.
func (h *Harness) Sensitivity() ([]SensitivityRow, error) {
	wls := h.Workloads()
	specs := workloadSpecs("sensitivity", wls)
	rows, errs := runGrid(h, specs, func(_ context.Context, i int, _ CellSpec) (SensitivityRow, error) {
		return h.sensitivityCell(wls[i])
	})
	if err := firstCellErr(specs, errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// sensitivityCell runs one workload's secure / no-unknown-blocking /
// baseline-slab triplet and reduces it to a row.
func (h *Harness) sensitivityCell(w Workload) (SensitivityRow, error) {
	views, err := h.ViewsFor(w)
	if err != nil {
		return SensitivityRow{}, err
	}
	run := func(blockUnknown, secureSlab bool) (*kernel.Kernel, float64, error) {
		cfg := kernel.DefaultConfig()
		cfg.SecureSlab = secureSlab
		k, err := h.BootMachine(cfg)
		if err != nil {
			return nil, 0, err
		}
		pol := schemes.NewPerspective(k.DSV, k.ISV, schemes.Perspective)
		pol.BlockUnknown = blockUnknown
		k.Core.Policy = pol
		k.OnProcessCreate = func(t *kernel.Task) {
			k.ISV.Install(t.Ctx(), views.Dynamic.View)
		}
		start := k.Core.Now()
		if err := h.runWorkloadOnce(k, w); err != nil {
			return nil, 0, err
		}
		return k, k.Core.Now() - start, nil
	}

	k, cyc, err := run(true, true)
	if err != nil {
		return SensitivityRow{}, fmt.Errorf("secure run: %w", err)
	}
	defer k.Release()
	kNoUnk, cycNoUnk, err := run(false, true)
	if err != nil {
		return SensitivityRow{}, fmt.Errorf("no-unknown run: %w", err)
	}
	kNoUnk.Release()
	kBase, _, err := run(true, false)
	if err != nil {
		return SensitivityRow{}, fmt.Errorf("baseline-slab run: %w", err)
	}
	defer kBase.Release()

	row := SensitivityRow{
		Workload:     w.Name,
		ISVHitRate:   k.ISV.Cache().Stats().HitRate(),
		DSVHitRate:   k.DSV.Cache().Stats().HitRate(),
		SlabUtil:     k.Slab.Utilization(),
		BaseSlabUtil: kBase.Slab.Utilization(),
	}
	if cycNoUnk > 0 {
		row.UnknownDeltaPct = 100 * (cyc - cycNoUnk) / cycNoUnk
	}
	st := k.Slab.Stats()
	if st.Frees > 0 {
		row.PageReturnPct = 100 * float64(st.PageReturns) / float64(st.Frees)
	}
	if cyc > 0 {
		row.PageReturnsPS = float64(st.PageReturns) / (cyc / CPUFreqHz)
	}
	return row, nil
}

// PrintSensitivity renders the §9.2 analyses.
func PrintSensitivity(w io.Writer, rows []SensitivityRow) {
	Section(w, "§9.2 sensitivity: view caches, unknown allocations, slab behaviour")
	fmt.Fprintf(w, "%-11s %8s %8s %9s %9s %10s %10s %9s\n",
		"workload", "ISV hit", "DSV hit", "slab(P)", "slab(base)", "ret/frees", "ret/sec", "unk ovh")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %7.1f%% %7.1f%% %8.1f%% %8.1f%% %9.3f%% %10.1f %8.2f%%\n",
			r.Workload, 100*r.ISVHitRate, 100*r.DSVHitRate,
			100*r.SlabUtil, 100*r.BaseSlabUtil,
			r.PageReturnPct, r.PageReturnsPS, r.UnknownDeltaPct)
	}
}

// HWCompareRow summarizes §9.1's hardware/software-mitigation comparisons
// from Fig 9.2/9.3 cells.
type HWCompareRow struct {
	Scheme        schemes.Kind
	MicroOverhead float64 // avg LEBench overhead (%)
	MacroNorm     float64 // avg app normalized throughput
}

// HWCompare reduces measurement cells into the §9.1 comparison table
// (DOM vs STT vs Perspective vs spot mitigations).
func HWCompare(le []LEBenchCell, ap []AppCell, kinds []schemes.Kind) []HWCompareRow {
	avg := SchemeAverages(le)
	appSum := map[schemes.Kind]float64{}
	appN := map[schemes.Kind]int{}
	for _, c := range ap {
		if c.NormThroughput > 0 {
			appSum[c.Scheme] += c.NormThroughput
			appN[c.Scheme]++
		}
	}
	var rows []HWCompareRow
	for _, k := range kinds {
		r := HWCompareRow{Scheme: k, MicroOverhead: 100 * (avg[k] - 1)}
		if appN[k] > 0 {
			r.MacroNorm = appSum[k] / float64(appN[k])
		}
		rows = append(rows, r)
	}
	return rows
}

// PrintHWCompare renders the comparison.
func PrintHWCompare(w io.Writer, rows []HWCompareRow) {
	Section(w, "§9.1 scheme comparison: microbenchmark overhead / macro throughput")
	fmt.Fprintf(w, "%-20s %14s %18s\n", "scheme", "micro ovh", "macro norm tput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %13.1f%% %18.3f\n", r.Scheme.String(), r.MicroOverhead, r.MacroNorm)
	}
}
