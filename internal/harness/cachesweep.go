package harness

import (
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/isv"
	"repro/internal/schemes"
	"repro/internal/sec"
	"repro/internal/viewcache"
)

// CacheSweepRow reports view-cache hit rate for one geometry — the
// hardware-structures sensitivity of §9.2 extended into a size sweep (an
// ablation DESIGN.md calls out: how small can the 128-entry caches get
// before conservative block-on-miss dominates?).
type CacheSweepRow struct {
	Entries int
	Ways    int
	HitRate float64
}

// ISVCacheSweep replays a recorded instruction-address reference stream
// (from a real LEBench run) against ISV caches of varying geometry.
func (h *Harness) ISVCacheSweep() ([]CacheSweepRow, error) {
	views, err := h.ViewsFor(h.Workloads()[0])
	if err != nil {
		return nil, err
	}
	// Record the checked-transmitter PC stream from one Perspective run.
	pcs, err := h.recordCheckStream(views)
	if err != nil {
		return nil, err
	}
	geometries := []viewcache.Config{
		{Sets: 4, Ways: 4},
		{Sets: 8, Ways: 4},
		{Sets: 16, Ways: 4},
		{Sets: 32, Ways: 4}, // Table 7.1 default
		{Sets: 64, Ways: 4},
		{Sets: 32, Ways: 8},
	}
	var rows []CacheSweepRow
	for _, g := range geometries {
		d := isv.NewDirWithCache(viewcache.New(g))
		d.Install(sec.CtxFirstUser, views.Dynamic.View)
		for _, pc := range pcs {
			d.Check(sec.CtxFirstUser, pc)
		}
		rows = append(rows, CacheSweepRow{
			Entries: g.Sets * g.Ways,
			Ways:    g.Ways,
			HitRate: d.Cache().Stats().HitRate(),
		})
	}
	return rows, nil
}

// recordCheckStream runs LEBench once under Perspective and records the PCs
// of every checked speculative transmitter.
func (h *Harness) recordCheckStream(views *Views) ([]uint64, error) {
	k, err := h.newMachine(schemes.Perspective, views.Dynamic)
	if err != nil {
		return nil, err
	}
	defer k.Release()
	rec := &pcRecorder{Policy: k.Core.Policy}
	k.Core.Policy = rec
	w := h.Workloads()[0]
	if err := h.runWorkloadOnce(k, w); err != nil {
		return nil, err
	}
	return rec.pcs, nil
}

// pcRecorder wraps a policy, recording every kernel-mode check's PC; every
// other method is the wrapped policy's.
type pcRecorder struct {
	cpu.Policy
	pcs []uint64
}

func (r *pcRecorder) OnTransmit(a *cpu.Access) cpu.Verdict {
	if a.Kernel {
		r.pcs = append(r.pcs, a.PC)
	}
	return r.Policy.OnTransmit(a)
}

// PrintCacheSweep renders the sweep.
func PrintCacheSweep(w io.Writer, rows []CacheSweepRow) {
	Section(w, "extension: ISV cache geometry sweep (hit rate vs size)")
	fmt.Fprintf(w, "%8s %6s %9s\n", "entries", "ways", "hit rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %6d %8.1f%%\n", r.Entries, r.Ways, 100*r.HitRate)
	}
}
