package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/scanner"
	"repro/internal/schemes"
	"repro/internal/staticflow"
)

// This file implements `-exp staticflow`: the static speculative-leak
// verifier judged against the repo's dynamic oracles. Four parts:
//
//  1. the whole-image abstract interpretation (internal/staticflow), its
//     per-function rounds run as cells on the parallel engine;
//  2. the machine-checked soundness cross-check — every finding of the
//     dynamic scanner census and the relsec distinguishing witness must be
//     statically flagged — plus the precision table of static-only findings;
//  3. static fence synthesis compared head-to-head with the CureSpec-style
//     dynamic repair loop (the scan sequence `-exp relsec` converges over,
//     memoized on the harness, so the comparison is that loop exactly);
//  4. the statically synthesized fence set re-judged by the relsec
//     differential oracle: every driveable gadget's secret pair must be
//     trace-equal under SelectiveFencePolicy over the static ranges.
//
// Every phase is deterministic and cells reassemble in spec order, so the
// rendered report is byte-identical at any -jobs. Wall-clock time is
// deliberately absent from the report (simbench's traced eval-quick run
// tracks it as harness.exp_s.staticflow).

// staticflowShards fixes the per-round shard count of the analysis phase.
// It is a constant — independent of -jobs — so the cell grid, and with it
// the report, never varies with worker count.
const staticflowShards = 8

// StaticFlowReport is the experiment's result.
type StaticFlowReport struct {
	// Whole-image analysis shape.
	Funcs, Insts, Rounds int

	// Static census and its per-channel split.
	StaticFindings                     int
	StaticMDS, StaticPort, StaticCache int

	// Dynamic scanner census (whole-kernel campaign) and the cross-check:
	// MissingDyn counts dynamic findings absent from the static census —
	// any nonzero value is a soundness violation.
	DynFindings               int
	DynMDS, DynPort, DynCache int
	MissingDyn                int
	StaticOnly                int

	// Relsec witness coverage: the first divergent observation of the
	// distinguishing trace must sit at a statically flagged PC.
	WitnessGadget  string
	WitnessPC      uint64
	WitnessFlagged bool

	// Fence synthesis: the static cut vs the dynamic repair loop (-exp
	// relsec's scan sequence) vs blanket FENCE.
	StaticSites  int
	DynIters     int
	DynSites     int
	BlanketSites int

	// Differential verification of the static fence set over the driveable
	// census.
	VerifyGadgets  int
	VerifyDiverged int
	VerifyFirstDiv string

	// LEBench pricing (CyclesPerIter sums; normalized in the renderer).
	UnsafeCycles  float64
	StaticCycles  float64
	DynamicCycles float64
	BlanketCycles float64
}

// StaticFlow runs the experiment.
func (h *Harness) StaticFlow() (*StaticFlowReport, error) {
	static, err := h.staticflowAnalyze()
	if err != nil {
		return nil, err
	}
	rep := &StaticFlowReport{
		Funcs:          static.Funcs,
		Insts:          static.Insts,
		Rounds:         static.Rounds,
		StaticFindings: len(static.Findings),
		StaticSites:    len(static.FenceSites),
	}
	rep.StaticMDS, rep.StaticPort, rep.StaticCache = static.Census()

	// Soundness cross-check against the dynamic whole-kernel campaign.
	staticSet := make(map[staticflow.Finding]bool, len(static.Findings))
	for _, f := range static.Findings {
		staticSet[f] = true
	}
	dyn := h.WholeKernelScan()
	rep.DynFindings = len(dyn.Findings)
	rep.DynMDS, rep.DynPort, rep.DynCache = dyn.Census()
	for _, f := range dyn.Findings {
		if !staticSet[staticflow.Finding{FuncID: f.FuncID, PC: f.PC, Kind: f.Kind}] {
			rep.MissingDyn++
		}
	}
	rep.StaticOnly = rep.StaticFindings - (rep.DynFindings - rep.MissingDyn)

	// Witness coverage: -exp relsec's memoized distinguishing trace.
	wit, err := h.witness()
	if err != nil {
		return rep, fmt.Errorf("staticflow witness: %w", err)
	}
	rep.WitnessGadget, rep.WitnessPC = wit.Gadget, wit.EventA.PC
	rep.WitnessFlagged = static.HasPC(wit.EventA.PC)

	// Dynamic repair loop: -exp relsec's memoized scan sequence, priced
	// without re-paying its differential re-verifications.
	scan := h.repairScan()
	rep.DynIters, rep.BlanketSites = len(scan.steps), scan.blanket
	for _, f := range scan.steps {
		rep.DynSites += scanner.FenceSites(h.Img.FuncByID(f.FuncID))
	}

	// The static cut, judged by the same differential oracle the dynamic
	// loop used: every driveable gadget's secret pair under the static
	// selective fences.
	staticRanges := staticflow.FenceRanges(static.FenceSites)
	if err := h.staticflowVerify(rep, staticRanges); err != nil {
		return rep, err
	}

	// Price all three placements on the LEBench slice.
	if rep.UnsafeCycles, err = h.relsecCycles(nil, false); err != nil {
		return rep, err
	}
	if rep.StaticCycles, err = h.relsecCycles(staticRanges, false); err != nil {
		return rep, err
	}
	if rep.DynamicCycles, err = h.relsecCycles(scan.ranges, false); err != nil {
		return rep, err
	}
	if rep.BlanketCycles, err = h.relsecCycles(nil, true); err != nil {
		return rep, err
	}
	return rep, nil
}

// staticflowAnalyze runs the interprocedural fixpoint with each round's
// per-function work sharded across the parallel cell engine. The shard
// count and the sequential contribution join are fixed, so the fixpoint is
// identical at any -jobs.
func (h *Harness) staticflowAnalyze() (*staticflow.Report, error) {
	a := staticflow.New(h.Img)
	n := a.NumFuncs()
	shards := staticflowShards
	if shards > n {
		shards = n
	}
	results := make([]staticflow.FuncResult, 0, n)
	for round := 1; ; round++ {
		specs := make([]CellSpec, 0, shards)
		for s := 0; s < shards; s++ {
			specs = append(specs, CellSpec{"staticflow",
				fmt.Sprintf("round=%d", round), fmt.Sprintf("shard=%d", s)})
		}
		parts, errs := runGrid(h, specs, func(_ context.Context, i int, _ CellSpec) ([]staticflow.FuncResult, error) {
			lo, hi := i*n/shards, (i+1)*n/shards
			out := make([]staticflow.FuncResult, 0, hi-lo)
			for j := lo; j < hi; j++ {
				out = append(out, a.AnalyzeIndex(j))
			}
			return out, nil
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("staticflow %s/%s: %w", specs[i].Scheme, specs[i].Workload, err)
			}
		}
		results = results[:0]
		for _, p := range parts {
			results = append(results, p...)
		}
		if !a.JoinCalls(results) {
			return a.BuildReport(results), nil
		}
		if round > n {
			return nil, fmt.Errorf("staticflow: no fixpoint after %d rounds", round)
		}
	}
}

// staticflowVerify drives every driveable census gadget's secret pair under
// the static selective fences, sharded on the cell engine, and records the
// trace-equivalence verdict.
func (h *Harness) staticflowVerify(rep *StaticFlowReport, ranges []schemes.VARange) error {
	targets := relsecTargets(h.Img)
	rep.VerifyGadgets = len(targets)
	if len(targets) == 0 {
		return nil
	}
	shards := relsecShards
	if shards > len(targets) {
		shards = len(targets)
	}
	type verdict struct {
		diverged int
		firstDiv string
	}
	specs := make([]CellSpec, 0, shards)
	for s := 0; s < shards; s++ {
		specs = append(specs, CellSpec{"staticflow", "verify", fmt.Sprintf("shard=%d", s)})
	}
	cells, errs := runGrid(h, specs, func(_ context.Context, i int, spec CellSpec) (verdict, error) {
		lo := i * len(targets) / shards
		hi := (i + 1) * len(targets) / shards
		shard := targets[lo:hi]
		var v verdict
		diverged, err := h.fencedPairDiverged(shard, ranges, spec.seed(h.Opt.Seed))
		if err != nil {
			return v, err
		}
		for j, d := range diverged {
			if d {
				v.diverged++
				if v.firstDiv == "" {
					v.firstDiv = shard[j].Name
				}
			}
		}
		return v, nil
	})
	for i := range cells {
		if errs[i] != nil {
			return fmt.Errorf("staticflow verify shard %d: %w", i, errs[i])
		}
		rep.VerifyDiverged += cells[i].diverged
		if rep.VerifyFirstDiv == "" {
			rep.VerifyFirstDiv = cells[i].firstDiv
		}
	}
	return nil
}

// PrintStaticFlow renders the experiment.
func PrintStaticFlow(w io.Writer, rep *StaticFlowReport) {
	Section(w, "Static speculative-leak verifier: abstract-interpretation census + fence synthesis")
	fmt.Fprintf(w, "whole-image abstract interpretation: %d functions, %d instructions, fixpoint in %d rounds\n",
		rep.Funcs, rep.Insts, rep.Rounds)

	fmt.Fprintf(w, "\nsoundness cross-check (static census vs dynamic scanner campaign):\n")
	fmt.Fprintf(w, "  %-8s %8s %8s %8s\n", "channel", "static", "dynamic", "missing")
	fmt.Fprintf(w, "  %-8s %8d %8d\n", "MDS", rep.StaticMDS, rep.DynMDS)
	fmt.Fprintf(w, "  %-8s %8d %8d\n", "Port", rep.StaticPort, rep.DynPort)
	fmt.Fprintf(w, "  %-8s %8d %8d\n", "Cache", rep.StaticCache, rep.DynCache)
	fmt.Fprintf(w, "  %-8s %8d %8d %8d\n", "total", rep.StaticFindings, rep.DynFindings, rep.MissingDyn)
	if rep.MissingDyn == 0 {
		fmt.Fprintf(w, "  every dynamic finding statically flagged -> soundness HOLDS\n")
	} else {
		fmt.Fprintf(w, "  %d dynamic findings NOT statically flagged -> SOUNDNESS VIOLATION\n", rep.MissingDyn)
	}
	fmt.Fprintf(w, "  precision: %d static-only findings (code the dynamic campaign's scope or drivers never judged)\n",
		rep.StaticOnly)
	if rep.WitnessGadget != "" {
		verdict := "NOT FLAGGED — SOUNDNESS VIOLATION"
		if rep.WitnessFlagged {
			verdict = "statically flagged: YES"
		}
		fmt.Fprintf(w, "  relsec witness (%s, first divergence pc=%#x): %s\n",
			rep.WitnessGadget, rep.WitnessPC, verdict)
	}

	fmt.Fprintf(w, "\nfence synthesis (one static pass vs CureSpec-style dynamic repair loop):\n")
	pct := func(sites int) float64 {
		if rep.BlanketSites == 0 {
			return 0
		}
		return 100 * float64(sites) / float64(rep.BlanketSites)
	}
	fmt.Fprintf(w, "  %-12s %12s %12s %9s\n", "placement", "passes", "fence-sites", "of-blanket")
	fmt.Fprintf(w, "  %-12s %12d %12d %8.1f%%\n", "static", 1, rep.StaticSites, pct(rep.StaticSites))
	fmt.Fprintf(w, "  %-12s %12d %12d %8.1f%%\n", "dynamic", rep.DynIters, rep.DynSites, pct(rep.DynSites))
	fmt.Fprintf(w, "  %-12s %12s %12d %8.1f%%\n", "blanket", "-", rep.BlanketSites, 100.0)

	fmt.Fprintf(w, "\nstatic-fence differential verification (relsec oracle, driveable census):\n")
	if rep.VerifyDiverged == 0 {
		fmt.Fprintf(w, "  %d/%d gadget secret pairs trace-equal under the static fences — relatively secure\n",
			rep.VerifyGadgets, rep.VerifyGadgets)
	} else {
		fmt.Fprintf(w, "  %d/%d gadget secret pairs DISTINGUISHABLE under the static fences (first: %s) — leaks\n",
			rep.VerifyDiverged, rep.VerifyGadgets, rep.VerifyFirstDiv)
	}
	if rep.UnsafeCycles > 0 {
		fmt.Fprintf(w, "cycle cost (LEBench slice, normalized to UNSAFE): static %.2fx  dynamic %.2fx  blanket %.2fx\n",
			rep.StaticCycles/rep.UnsafeCycles,
			rep.DynamicCycles/rep.UnsafeCycles,
			rep.BlanketCycles/rep.UnsafeCycles)
	}
}
