// Command perspective-sim runs the paper's evaluation experiments and
// prints each table and figure in text form.
//
// Usage:
//
//	perspective-sim -exp all                 # everything, supervised
//	perspective-sim -exp fig9.2 -scale full  # one experiment, paper scale
//	perspective-sim -exp fig92 -jobs 8       # parallel cells, same bytes out
//	perspective-sim -exp faultsweep -seed 7  # fault-injection campaign
//	perspective-sim -exp all -resume         # skip checkpointed experiments
//	perspective-sim -list                    # enumerate experiments
//
// Every experiment's (scheme × workload) grid fans out to a worker pool of
// -jobs cells; per-cell seeds derive from (seed, experiment, scheme,
// workload), so output is byte-identical whatever the worker count.
//
// `-exp all` runs under a supervisor: a panicking or timed-out experiment
// is retried on a reseeded harness and, failing that, reported without
// aborting its successors; completed experiments checkpoint to -state so an
// interrupted run resumes with -resume.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
	"repro/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perspective-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	// Each experiment cell builds a fresh machine, so the live heap
	// cycles hard; the default GOGC=100 re-walks it after every boot. A
	// higher target trades bounded extra memory for fewer collections —
	// pure host-side tuning, honoured only if the user hasn't set GOGC.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	scale := flag.String("scale", "quick", "quick (fast, small kernel) or paper (28K-function kernel)")
	iters := flag.Int("iters", 0, "override LEBench iterations per test")
	requests := flag.Int("requests", 0, "override datacenter-app request count (closed-loop serves and taillats open-loop replays)")
	fleet := flag.Int("fleet", 0, "override taillats machines per (app, scheme) cell")
	arrival := flag.String("arrival", "poisson", "taillats arrival law: poisson or fixed")
	seed := flag.Int64("seed", 1, "seed for scanner campaigns and fault injection")
	jobs := flag.Int("jobs", 0, "cell-level worker pool size (0 = one per core); output is byte-identical at any value")
	cellTimeout := flag.Duration("cell-timeout", time.Duration(0), "per-cell deadline within an experiment (0 = none)")
	timeout := flag.Duration("timeout", time.Duration(0), "per-experiment deadline for supervised runs (0 = none)")
	retries := flag.Int("retries", 1, "attempts per experiment under -exp all (reseeded each retry)")
	state := flag.String("state", "perspective-sim.state.json", "checkpoint file for -exp all")
	resume := flag.Bool("resume", false, "skip experiments already completed in the checkpoint file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		fmt.Printf("%-12s %s\n", "all", "everything above, supervised")
		fmt.Println("\ndefaults: -seed 1, -timeout 0 (none), -retries 1,")
		fmt.Println("          -state perspective-sim.state.json (with -resume to skip finished cells)")
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perspective-sim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "perspective-sim: memprofile:", err)
			}
		}()
	}

	opt := harness.QuickOptions()
	if *scale == "paper" {
		opt = harness.PaperOptions()
	} else if *scale != "quick" {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *iters > 0 {
		opt.LEBenchIters = *iters
	}
	if *requests > 0 {
		opt.AppRequests = *requests
		opt.TailRequests = *requests
	}
	if *fleet > 0 {
		opt.TailFleet = *fleet
	}
	kind, err := loadgen.ParseArrival(*arrival)
	if err != nil {
		return err
	}
	opt.TailArrival = kind
	opt.Seed = *seed
	opt.Timeout = *timeout
	opt.Jobs = *jobs
	opt.CellTimeout = *cellTimeout

	w := os.Stdout
	if *exp == "all" {
		sup := harness.SupervisorOptions{
			Retries:   *retries,
			StateFile: *state,
			Resume:    *resume,
		}
		results, err := harness.Supervise(opt, sup, w)
		harness.PrintSupervisorReport(w, results)
		return err
	}

	e, ok := harness.FindExperiment(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", *exp)
	}
	h := harness.New(opt)
	fmt.Fprintf(w, "Perspective reproduction — kernel image: %d functions, %d instructions\n",
		h.Img.NumFuncs(), h.Img.NumInsts())
	return e.Run(h, w)
}
