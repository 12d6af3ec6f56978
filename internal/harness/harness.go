// Package harness orchestrates the paper's full evaluation: it builds
// machines, generates per-workload ISVs (static, dynamic from a profiling
// run, and audit-hardened ISV++), runs every workload under every defense
// scheme, and regenerates each table and figure of chapters 7–9.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/callgraph"
	"repro/internal/isvgen"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/ktrace"
	"repro/internal/lebench"
	"repro/internal/loadgen"
	"repro/internal/scanner"
	"repro/internal/schemes"
	"repro/internal/sec"
)

// Options scales the evaluation.
type Options struct {
	// Spec selects the kernel-image scale (kimage.FullSpec for the paper's
	// 28K-function shape, kimage.TestSpec for fast runs).
	Spec kimage.Spec
	// LEBenchIters is the measured iterations per microbenchmark.
	LEBenchIters int
	// AppRequests is the measured request count per datacenter app (the
	// paper uses 20K–160K on real hardware; simulation defaults are
	// smaller — shape, not wall-clock, is the target).
	AppRequests int
	// Schemes lists the configurations to evaluate.
	Schemes []schemes.Kind
	// Seed drives the scanner campaigns and the fault injector. Every
	// per-cell seed derives from it via CellSeed, so a run replays exactly
	// at any worker count.
	Seed int64
	// Timeout bounds each supervised experiment; zero means no deadline.
	Timeout time.Duration
	// Jobs is the cell-level worker-pool size; <=0 means one worker per
	// core (runtime.GOMAXPROCS(0)). Output is byte-identical at any value.
	Jobs int
	// CellTimeout bounds each individual (scheme, workload) cell; zero
	// means no per-cell deadline.
	CellTimeout time.Duration

	// TailRequests is the replayed open-loop request count per (app,
	// scheme) cell in -exp taillats; 0 means the 10⁶ default.
	TailRequests int
	// TailFleet is the cloned machines (stream shards) per taillats cell;
	// 0 means 4.
	TailFleet int
	// TailProbes is the fully-simulated probe requests per shard machine
	// that fill the service-time reservoir; 0 means 128.
	TailProbes int
	// TailArrival selects the open-loop arrival law (Poisson default).
	TailArrival loadgen.ArrivalKind
}

// QuickOptions runs everything at unit-test scale in a few seconds.
func QuickOptions() Options {
	return Options{
		Spec:         kimage.TestSpec(),
		LEBenchIters: 6,
		AppRequests:  40,
		Schemes: []schemes.Kind{
			schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT,
			schemes.PerspectiveStatic, schemes.Perspective, schemes.PerspectivePlus,
		},
		Seed: 1,
	}
}

// PaperOptions approximates the paper's scale (a few minutes of runtime).
func PaperOptions() Options {
	o := QuickOptions()
	o.Spec = kimage.FullSpec()
	o.LEBenchIters = 12
	o.AppRequests = 200
	return o
}

// Workload identifies one evaluated workload (LEBench or one app).
type Workload struct {
	Name    string
	App     *apps.App // nil for LEBench
	Profile isvgen.Profile
}

// Harness carries the shared immutable state: the image, its call graph,
// and a memoized build cache of derived inputs (per-workload views, the
// whole-kernel scan, the PoC view pair). The cache is concurrency-safe —
// parallel cells share one build of each input instead of rebuilding it —
// and everything it hands out is immutable after construction.
type Harness struct {
	Opt   Options
	Img   *kimage.Image
	Graph *callgraph.Graph

	mu    sync.Mutex            // guards views map shape
	views map[string]*viewsOnce // keyed once-cells, one per workload

	snapMu sync.Mutex                      // guards snaps map shape
	snaps  map[kernel.Config]*snapshotOnce // one boot snapshot per machine config

	// forceFresh bypasses the snapshot cache so differential tests can
	// compare clone-backed runs against genuinely fresh boots.
	forceFresh bool

	// Fresh-boot digest memo: the faultsweep checker judges every cloned
	// campaign machine against this reference (one genuine kernel.New boot,
	// paid once per harness).
	freshDig     uint64
	freshDigErr  error
	freshDigOnce sync.Once

	wholeScan     scanner.Report // Fig 9.1's unbounded campaign
	wholeScanOnce sync.Once

	// -exp relsec's repair-loop scan sequence, distinguishing witness and
	// LEBench prices, which -exp staticflow compares itself against (see
	// relsec.go).
	repair      *repairSeq
	repairOnce  sync.Once
	wit         *RelSecWitness
	witErr      error
	witnessOnce sync.Once
	prices      relsecPrices

	pocAll      *isvgen.Result // PoC matrix: permissive view
	pocHardened *isvgen.Result // PoC matrix: gadget-hardened view
	pocOnce     sync.Once

	wls     []Workload // memoized Workloads(): called per cell in hot loops
	wlsOnce sync.Once

	// Measurement-grid memos. Fig92/Fig93 cells are pure functions of the
	// harness options (per-cell seeds derive from CellSeed over fixed
	// labels), so a second invocation on the same harness — hw-compare
	// re-deriving the §9.1 summary after fig9.2/fig9.3 already ran —
	// replays the identical grid. Memoizing returns the same immutable
	// cells instead of re-simulating ~1/3 of the full-run wall time.
	fig92Memo gridOnce[LEBenchCell]
	fig93Memo gridOnce[AppCell]

	// taillats memo (see taillats.go): the fleet grid is likewise a pure
	// function of the options.
	tailMemo
}

// gridOnce memoizes one deterministic experiment grid (cells + aggregate
// error) behind a sync.Once. Callers treat the returned slice as immutable.
type gridOnce[T any] struct {
	once  sync.Once
	cells []T
	err   error
}

func (g *gridOnce[T]) do(f func() ([]T, error)) ([]T, error) {
	built := false
	g.once.Do(func() { g.cells, g.err = f(); built = true })
	if !built {
		// A memo hit still delivers the full grid: count its cells so the
		// bench layer's cells/sec metric keeps measuring *delivered* cells,
		// comparable with pre-memoization reports where every delivery was
		// a re-simulation.
		cellsRun.Add(uint64(len(g.cells)))
	}
	return g.cells, g.err
}

// viewsOnce is one workload's memoized view build: the first caller runs
// the profiling machine and scan, every later (possibly concurrent) caller
// gets the same immutable result.
type viewsOnce struct {
	once sync.Once
	v    *Views
	err  error
}

// snapshotOnce is one machine configuration's memoized boot: the first
// caller pays the full kernel.New boot and freezes it; every later
// (possibly concurrent) caller clones the immutable snapshot.
type snapshotOnce struct {
	once sync.Once
	s    *kernel.Snapshot
	err  error
}

// Views bundles a workload's three ISV flavours.
type Views struct {
	Static  *isvgen.Result
	Dynamic *isvgen.Result
	Plus    *isvgen.Result
}

// Select returns the view a Perspective variant installs.
func (v *Views) Select(k schemes.Kind) *isvgen.Result {
	switch k {
	case schemes.PerspectiveStatic:
		return v.Static
	case schemes.PerspectivePlus:
		return v.Plus
	default:
		return v.Dynamic
	}
}

// New builds a harness (generating the image once).
func New(opt Options) *Harness {
	img := kimage.MustBuild(opt.Spec)
	return &Harness{
		Opt:   opt,
		Img:   img,
		Graph: callgraph.New(img),
		views: make(map[string]*viewsOnce),
		snaps: make(map[kernel.Config]*snapshotOnce),
	}
}

// BootMachine returns a machine booted with cfg. The first call for a given
// config boots a real machine (kernel.New) and freezes it; every later call
// — including concurrent calls from parallel cells — clones the snapshot,
// sharing the 32 MB physical store copy-on-write instead of re-running
// kernel init. A clone is observationally identical to a fresh boot, so
// experiment output is unchanged; only host time moves.
func (h *Harness) BootMachine(cfg kernel.Config) (*kernel.Kernel, error) {
	if h.forceFresh {
		return kernel.New(cfg, h.Img)
	}
	h.snapMu.Lock()
	c, ok := h.snaps[cfg]
	if !ok {
		c = &snapshotOnce{}
		h.snaps[cfg] = c
	}
	h.snapMu.Unlock()
	c.once.Do(func() { c.s, c.err = kernel.NewSnapshot(cfg, h.Img) })
	if c.err != nil {
		// A failed boot is a harness-level fact (same image, same config
		// would fail again); the supervisor retries on a fresh harness.
		return nil, fmt.Errorf("boot snapshot: %w", c.err)
	}
	return c.s.Clone(), nil
}

// freshBootDigest memoizes the StateDigest of a genuinely fresh boot
// (kernel.New, never the snapshot cache) under the default config — the
// reference the faultsweep invariant checker compares snapshot clones
// against. Booting outside BootMachine is deliberate: a corrupted snapshot
// must not supply its own reference.
func (h *Harness) freshBootDigest() (uint64, error) {
	h.freshDigOnce.Do(func() {
		k, err := kernel.New(kernel.DefaultConfig(), h.Img)
		if err != nil {
			h.freshDigErr = fmt.Errorf("fresh reference boot: %w", err)
			return
		}
		h.freshDig = k.StateDigest()
		k.Release()
	})
	return h.freshDig, h.freshDigErr
}

// Workloads returns LEBench plus the four applications. The list is built
// once and shared: callers treat the returned slice as immutable (the grid
// runners call this inside per-cell loops).
func (h *Harness) Workloads() []Workload {
	h.wlsOnce.Do(func() {
		out := []Workload{{
			Name: "LEBench",
			Profile: isvgen.Profile{
				Name:     "LEBench",
				Syscalls: lebench.Profile(),
				Extra:    []int{kimage.NRGetuid, kimage.NRDup, kimage.NRNanosleep},
			},
		}}
		for i := range apps.All() {
			a := apps.All()[i]
			out = append(out, Workload{
				Name: a.Name,
				App:  &a,
				Profile: isvgen.Profile{
					Name:     a.Name,
					Syscalls: a.Profile(),
					Extra:    a.ExtraProfile(),
				},
			})
		}
		h.wls = out
	})
	return h.wls
}

// newMachine boots a machine configured for a scheme (cloned from the
// default-config boot snapshot); for Perspective variants the given view is
// installed for every container at process creation.
func (h *Harness) newMachine(kind schemes.Kind, view *isvgen.Result) (*kernel.Kernel, error) {
	k, err := h.BootMachine(kernel.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("boot %v machine: %w", kind, err)
	}
	k.Core.Policy = schemes.New(kind, k.DSV, k.ISV)
	if kind.IsPerspective() && view != nil {
		k.OnProcessCreate = func(t *kernel.Task) {
			if h.Img != nil {
				k.ISV.Install(t.Ctx(), view.View)
			}
		}
	}
	return k, nil
}

// ViewsFor generates (and caches) a workload's static, dynamic and ISV++
// views. The dynamic view comes from an actual profiling run with the
// tracing subsystem enabled; ISV++ removes the functions a Kasper-style
// scan of the dynamic view flags (§5.4). The build is memoized per
// workload behind a keyed once: concurrent cells needing the same
// workload's views block on one build and share the immutable result.
// Errors memoize too — a failed build is a harness-level fact; the
// supervisor retries on a fresh harness.
func (h *Harness) ViewsFor(w Workload) (*Views, error) {
	h.mu.Lock()
	c, ok := h.views[w.Name]
	if !ok {
		c = &viewsOnce{}
		h.views[w.Name] = c
	}
	h.mu.Unlock()
	c.once.Do(func() { c.v, c.err = h.buildViews(w) })
	return c.v, c.err
}

// buildViews performs the actual (expensive) view construction.
func (h *Harness) buildViews(w Workload) (*Views, error) {
	static := isvgen.Static(h.Img, h.Graph, w.Profile)

	// Profiling run: unprotected machine, tracing on for every container.
	k, err := h.BootMachine(kernel.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("views/%s: boot profiling machine: %w", w.Name, err)
	}
	defer k.Release()
	var ctxs []sec.Ctx
	k.OnProcessCreate = func(t *kernel.Task) {
		k.Trace.Enable(t.Ctx())
		ctxs = append(ctxs, t.Ctx())
	}
	if err := h.runWorkloadOnce(k, w); err != nil {
		return nil, fmt.Errorf("profiling %s: %w", w.Name, err)
	}
	dynamic := dynamicUnion(h.Img, k.Trace, ctxs)

	// Audit the dynamic view and cut the findings out (ISV++). The
	// campaign seed derives from the workload identity, not from build
	// order, so concurrent view construction cannot change the audit.
	rep := scanner.Scan(h.Img, dynamic.Funcs, CellSeed(h.Opt.Seed, "views", w.Name))
	plus := isvgen.Harden(h.Img, dynamic, rep.GadgetFuncIDs())

	return &Views{Static: static, Dynamic: dynamic, Plus: plus}, nil
}

// WholeKernelScan memoizes Fig 9.1's unbounded Kasper campaign — every
// workload's speedup row compares against the same shared scan.
func (h *Harness) WholeKernelScan() scanner.Report {
	h.wholeScanOnce.Do(func() {
		h.wholeScan = scanner.Scan(h.Img, h.Graph.WholeKernelClosure(),
			CellSeed(h.Opt.Seed, "fig9.1", "unbounded"))
	})
	return h.wholeScan
}

// pocViews memoizes the PoC matrix's view pair (a permissive whole-kernel
// view and its gadget-hardened counterpart) so attack cells share one
// build instead of regenerating both per cell.
func (h *Harness) pocViews() (all, hardened *isvgen.Result) {
	h.pocOnce.Do(func() {
		h.pocAll = isvgen.FromFuncs(h.Img, allFuncIDs(h.Img))
		h.pocHardened = isvgen.Harden(h.Img, h.pocAll, gadgetIDs(h.Img))
	})
	return h.pocAll, h.pocHardened
}

// dynamicUnion merges traces from all of a workload's containers.
func dynamicUnion(img *kimage.Image, rec *ktrace.Recorder, ctxs []sec.Ctx) *isvgen.Result {
	seen := map[int]bool{}
	var ids []int
	for _, c := range ctxs {
		for _, id := range rec.Traced(c) {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids)
	return isvgen.FromFuncs(img, ids)
}

// runWorkloadOnce drives the workload briefly (profiling / fence-statistic
// runs).
func (h *Harness) runWorkloadOnce(k *kernel.Kernel, w Workload) error {
	if w.App == nil {
		for _, tst := range lebench.Tests() {
			if _, err := lebench.RunTest(k, tst, 2); err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, tst.Name, err)
			}
		}
		return nil
	}
	c, err := apps.Dial(*w.App, k)
	if err != nil {
		return fmt.Errorf("%s: dial: %w", w.Name, err)
	}
	if _, err = c.Serve(min(h.Opt.AppRequests, 20)); err != nil {
		return fmt.Errorf("%s: serve: %w", w.Name, err)
	}
	return nil
}

// Section prints a header.
func Section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
