package harness

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// This file is the machine-level arm of the lockstep differential oracle
// (cpu.LockstepRun is the core-level arm): boot two machines identical in
// every respect except that one has its decoded program detached (single-op
// dispatch), drive both through the same workload, and compare the full
// per-instruction state stream plus the kernel state digest. A divergence report names the
// first differing committed instruction and its decoded form.

// lockstepKernels is a block-dispatch/single-op machine pair with step
// traces attached.
type lockstepKernels struct {
	fast, ref *kernel.Kernel
	ft, rt    cpu.StepTrace
}

func newLockstepKernels(t *testing.T, h *Harness, kind schemes.Kind) *lockstepKernels {
	t.Helper()
	viewAll, _ := h.pocViews()
	boot := func() *kernel.Kernel {
		k, err := h.newMachine(kind, viewAll)
		if err != nil {
			t.Fatalf("boot %v machine: %v", kind, err)
		}
		return k
	}
	lk := &lockstepKernels{fast: boot(), ref: boot()}
	lk.ref.Core.SetProgram(nil) // the reference dispatches one op at a time
	lk.fast.Core.AttachStepTrace(&lk.ft)
	lk.ref.Core.AttachStepTrace(&lk.rt)
	return lk
}

func (lk *lockstepKernels) release() {
	lk.fast.Core.AttachStepTrace(nil)
	lk.ref.Core.AttachStepTrace(nil)
	lk.fast.Release()
	lk.ref.Release()
}

// check compares the step traces accumulated since the last check, fails
// with the first divergence, and resets the traces (bounding memory: one
// workload step at a time is held, not the whole run).
func (lk *lockstepKernels) check(t *testing.T, label string) {
	t.Helper()
	if idx, ok := cpu.CompareStepTraces(&lk.ft, &lk.rt); !ok {
		t.Fatalf("%s: %s", label, cpu.ExplainDivergence(lk.fast.Core, &lk.ft, &lk.rt, idx))
	}
	lk.ft.Reset()
	lk.rt.Reset()
}

// finish runs the end-of-drive invariants: the comparison must not have
// been vacuous (the fast machine really dispatched decoded blocks, the
// reference really did not), the kernel state digests must agree, and the
// two simulated clocks must be bit-identical.
func (lk *lockstepKernels) finish(t *testing.T, label string) {
	t.Helper()
	lk.check(t, label+": trailing steps")
	if lk.fast.Core.Stats.ThreadedInsts == 0 {
		t.Errorf("%s: block dispatch never ran — comparison vacuous", label)
	}
	if lk.ref.Core.Stats.ThreadedInsts != 0 {
		t.Errorf("%s: reference machine dispatched decoded blocks", label)
	}
	if fd, rd := lk.fast.StateDigest(), lk.ref.StateDigest(); fd != rd {
		t.Errorf("%s: kernel state digests diverged: block %#x, single-op %#x", label, fd, rd)
	}
	if fn, rn := lk.fast.Core.Now(), lk.ref.Core.Now(); math.Float64bits(fn) != math.Float64bits(rn) {
		t.Errorf("%s: clocks diverged: block %v, single-op %v", label, fn, rn)
	}
	if fi, ri := lk.fast.Core.Stats.Insts, lk.ref.Core.Stats.Insts; fi != ri {
		t.Errorf("%s: instruction counts diverged: block %d, single-op %d", label, fi, ri)
	}
}

// driveLEBench runs the given LEBench tests on both machines, comparing the
// per-instruction stream and the measured cycles after every test.
func (lk *lockstepKernels) driveLEBench(t *testing.T, tests []lebench.Test, iters int) {
	t.Helper()
	for _, tst := range tests {
		fres, err := lebench.RunTest(lk.fast, tst, iters)
		if err != nil {
			t.Fatalf("block-dispatch %s: %v", tst.Name, err)
		}
		rres, err := lebench.RunTest(lk.ref, tst, iters)
		if err != nil {
			t.Fatalf("single-op %s: %v", tst.Name, err)
		}
		lk.check(t, "lebench/"+tst.Name)
		if math.Float64bits(fres.CyclesPerIter) != math.Float64bits(rres.CyclesPerIter) {
			t.Errorf("lebench/%s: cycles/iter diverged: block %v, single-op %v",
				tst.Name, fres.CyclesPerIter, rres.CyclesPerIter)
		}
	}
}

// driveCensus runs the relative-security gadget drive — mistraining,
// flushes, out-of-bounds victim calls, observation recording — on both
// machines and compares the step stream and the per-gadget trace marks.
func (lk *lockstepKernels) driveCensus(t *testing.T, h *Harness, n int) {
	t.Helper()
	targets := relsecTargets(h.Img)
	if len(targets) > n {
		targets = targets[:n]
	}
	const secret = 0x5a
	fr, err := relsecDrive(lk.fast, secret, targets, relsecCellCap)
	if err != nil {
		t.Fatalf("block-dispatch census drive: %v", err)
	}
	rr, err := relsecDrive(lk.ref, secret, targets, relsecCellCap)
	if err != nil {
		t.Fatalf("single-op census drive: %v", err)
	}
	lk.check(t, "census")
	for i := range fr.marks {
		if fr.marks[i] != rr.marks[i] {
			t.Errorf("census gadget %s: observation marks diverged: block %v, single-op %v",
				targets[i].Name, fr.marks[i], rr.marks[i])
		}
	}
}

// TestLockstepSmoke is the bounded oracle run wired into `make check`: one
// scheme, a slice of LEBench, one census gadget.
func TestLockstepSmoke(t *testing.T) {
	h := relsecHarness()
	lk := newLockstepKernels(t, h, schemes.Unsafe)
	defer lk.release()
	lk.driveLEBench(t, lebench.Tests()[:3], 2)
	lk.driveCensus(t, h, 1)
	lk.finish(t, "smoke")
}

// TestLockstepLEBenchSuite runs the full LEBench suite under each judged
// scheme class: the unprotected baseline (which also exercises the dispatch
// loop's policy fast path), a blocking policy, and Perspective (whose
// OnTransmit mutates view-cache state, so the consult order itself is under
// test).
func TestLockstepLEBenchSuite(t *testing.T) {
	h := relsecHarness()
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Fence, schemes.Perspective} {
		t.Run(kind.String(), func(t *testing.T) {
			lk := newLockstepKernels(t, h, kind)
			defer lk.release()
			lk.driveLEBench(t, lebench.Tests(), 2)
			lk.finish(t, kind.String())
		})
	}
}

// TestLockstepCensusSample drives a census-gadget sample — transient
// windows, planted secrets, flush+reload probes — under the same scheme
// classes. Wrong-path execution walks decoded blocks in the fast machine
// and single decoded ops in the reference; what this checks is that the
// committed-path stream around every squash window is identical.
func TestLockstepCensusSample(t *testing.T) {
	h := relsecHarness()
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Fence, schemes.Perspective} {
		t.Run(kind.String(), func(t *testing.T) {
			lk := newLockstepKernels(t, h, kind)
			defer lk.release()
			lk.driveCensus(t, h, 4)
			lk.finish(t, kind.String())
		})
	}
}
