package cpu

import (
	"fmt"
	"testing"

	"repro/internal/bbcache"
	"repro/internal/isa"
)

// flatten converts a mapCode into the contiguous (base, flat, valid) form
// bbcache.Build takes.
func flatten(mc *mapCode) (uint64, []isa.Inst, []bool) {
	var lo, hi uint64
	first := true
	for va := range mc.m {
		if first {
			lo, hi = va, va
			first = false
			continue
		}
		if va < lo {
			lo = va
		}
		if va > hi {
			hi = va
		}
	}
	n := int((hi-lo)/isa.InstBytes) + 1
	flat := make([]isa.Inst, n)
	valid := make([]bool, n)
	for va, in := range mc.m {
		idx := int((va - lo) / isa.InstBytes)
		flat[idx] = *in
		valid[idx] = true
	}
	return lo, flat, valid
}

// lockstepPair builds two independent but identical worlds from the same
// construction function, attaches the decoded program to the first (block
// dispatch), and leaves the second without one (single-op dispatch).
// Placement gaps make every placed region start a leader, so no explicit
// entry list is needed.
func lockstepPair(t *testing.T, build func(w *world)) (fast, ref *world) {
	t.Helper()
	fast, ref = newWorld(), newWorld()
	build(fast)
	build(ref)
	base, flat, valid := flatten(fast.code)
	prog := bbcache.Build(base, flat, valid, nil)
	if prog.NumBlocks() == 0 {
		t.Fatal("no blocks decoded")
	}
	fast.core.SetProgram(prog)
	return fast, ref
}

// requireOK fails the test with the full divergence report.
func requireOK(t *testing.T, rep LockstepReport) {
	t.Helper()
	if !rep.OK() {
		t.Fatal(rep.String())
	}
}

func TestLockstepStraightLine(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.MovImm(isa.R2, 6)
		a.MovImm(isa.R3, 7)
		a.Mul(isa.R1, isa.R2, isa.R3)
		a.AddImm(isa.R1, isa.R1, 8)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if rep.Steps != 5 {
		t.Errorf("steps = %d, want 5", rep.Steps)
	}
	if fast.core.Stats.ThreadedInsts == 0 {
		t.Error("block dispatch never ran: the comparison is vacuous")
	}
	if ref.core.Stats.ThreadedInsts != 0 {
		t.Error("reference core dispatched decoded blocks")
	}
}

func TestLockstepLoopsCallsMemory(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		buf := dm(16 * 4096)
		w.phys.Write64(16*4096, 5)
		callee := entry + 0x1000
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(buf))
		a.Load(isa.R3, isa.R2, 0) // loop count from memory
		a.MovImm(isa.R1, 0)
		a.Label("loop")
		a.Call("")
		a.Store(isa.R2, 8, isa.R1)
		a.AddImm(isa.R3, isa.R3, -1)
		a.Branch(isa.CNE, isa.R3, isa.R0, "loop")
		a.Fence()
		a.Halt()
		insts := a.MustBuild()
		insts[3].Target = callee
		w.code.place(entry, insts)

		sub := isa.NewAsm()
		sub.Mul(isa.R4, isa.R3, isa.R3)
		sub.AddImm(isa.R1, isa.R1, 1)
		sub.Add(isa.R1, isa.R1, isa.R4)
		sub.Ret()
		w.code.place(callee, sub.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 1000)
	requireOK(t, rep)
	if fast.core.Stats.ThreadedInsts == 0 {
		t.Error("block dispatch never ran")
	}
}

func TestLockstepMispredictAndTransientPath(t *testing.T) {
	build := func(w *world) {
		probe := dm(100 * 4096)
		a := isa.NewAsm()
		a.MovImm(isa.R3, int64(probe))
		a.Branch(isa.CNE, isa.R2, isa.R0, "skip")
		a.Load(isa.R4, isa.R3, 0) // wrong path when mistrained
		a.Label("skip")
		a.Mov(isa.R1, isa.R4)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	}
	fast, ref := lockstepPair(t, build)
	// Train not-taken in lockstep, then mispredict: the squash window runs
	// the wrong path in both cores — over decoded blocks in fast, one
	// decoded op at a time in ref — and its timing feeds back into
	// committed state through specUntil and the caches.
	for i := 0; i < 4; i++ {
		fast.core.Regs[isa.R2] = 0
		ref.core.Regs[isa.R2] = 0
		requireOK(t, LockstepRun(fast.core, ref.core, entry, 100))
	}
	fast.core.Regs[isa.R2] = 1 // predicted not-taken, actually taken
	ref.core.Regs[isa.R2] = 1
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if fast.core.Stats.Mispredicts == 0 {
		t.Error("no mispredict: the transient path was never exercised")
	}
	if fast.core.Stats.TransientInsts != ref.core.Stats.TransientInsts {
		t.Errorf("transient insts: block dispatch %d, single-op dispatch %d",
			fast.core.Stats.TransientInsts, ref.core.Stats.TransientInsts)
	}
}

func TestLockstepUnderBlockingPolicy(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		base := dm(64 * 4096)
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(base))
		a.Load(isa.R3, isa.R2, 0) // cold: long shadow
		// Not-taken and predicted not-taken (cold predictor default): the
		// shadow stays open over the loads below, so the policy blocks them
		// on the committed path.
		a.Branch(isa.CNE, isa.R3, isa.R0, "go")
		a.Label("go")
		for i := 0; i < 6; i++ {
			a.Load(isa.R4, isa.R2, int64(8*(i+1)))
			a.Mul(isa.R5, isa.R4, isa.R4)
		}
		a.Halt()
		w.code.place(entry, a.MustBuild())
		w.core.Policy = blockAll{}
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if fast.core.Stats.Fences == 0 {
		t.Error("no fences: the blocking path was never exercised")
	}
}

func TestLockstepDataFault(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(dm(w.phys.Bytes()+4096)))
		a.Load(isa.R1, isa.R2, 0)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if !rep.FastRes.Fault {
		t.Error("no fault")
	}
	if rep.Steps != 2 {
		t.Errorf("steps = %d, want 2 (faulting load is a counted step)", rep.Steps)
	}
}

// Budgets on, one past, and two past a block boundary of a 3-op loop body:
// the off-boundary ones make block dispatch cut its last block short, and
// every case must stop on exactly the budget.
func TestLockstepTruncation(t *testing.T) {
	for _, budget := range []int{49, 50, 51} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			fast, ref := lockstepPair(t, func(w *world) {
				a := isa.NewAsm()
				a.Label("spin")
				a.AddImm(isa.R1, isa.R1, 1)
				a.AddImm(isa.R2, isa.R2, 2)
				a.Jmp("spin")
				w.code.place(entry, a.MustBuild())
			})
			rep := LockstepRun(fast.core, ref.core, entry, budget)
			requireOK(t, rep)
			if !rep.FastRes.Truncated {
				t.Error("not truncated")
			}
			if rep.Steps != budget {
				t.Errorf("steps = %d, want exactly the budget", rep.Steps)
			}
		})
	}
}

// A word outside the ISA is a fetch fault at its PC: it retires nothing,
// counts one fault, and both dispatch modes stop on it identically.
func TestLockstepUndecodableWordFaults(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.MovImm(isa.R1, 1)
		a.AddImm(isa.R1, isa.R1, 1)
		a.Nop()
		a.Halt()
		insts := a.MustBuild()
		insts[2].Op = isa.Op(200) // patch in an op outside the ISA
		w.code.place(entry, insts)
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	bad := entry + 2*isa.InstBytes
	if !rep.FastRes.Fault || rep.FastRes.FaultPC != bad {
		t.Errorf("result %+v, want a fault at pc %#x", rep.FastRes, bad)
	}
	if rep.FastRes.Insts != 2 {
		t.Errorf("insts = %d, want 2 (the undecodable word retires nothing)", rep.FastRes.Insts)
	}
	for _, w := range []*world{fast, ref} {
		if w.core.Stats.Faults != 1 {
			t.Errorf("Stats.Faults = %d, want 1", w.core.Stats.Faults)
		}
	}
}

// User-mode code must never dispatch kernel blocks, even at a PC the
// attached program covers: modelled on the PassiveSpectreV2 poison step, a
// user icall into kernel text trains the BTB, then faults (SMEP) at the
// kernel PC before any kernel instruction retires.
func TestLockstepUserModeNeverDispatchesKernelBlocks(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		k := isa.NewAsm()
		k.MovImm(isa.R1, 99)
		k.Halt()
		w.code.place(entry, k.MustBuild())
	})
	if fast.core.prog.BlockAt(entry) == nil {
		t.Fatal("no decoded block at the kernel target: the case is vacuous")
	}
	const userPC = uint64(0x40_0000)
	icallPC := userPC + isa.InstBytes
	target := entry
	for _, w := range []*world{fast, ref} {
		u := isa.NewAsm()
		u.MovImm(isa.R2, int64(target))
		u.ICall(isa.R2)
		u.Halt()
		w.code.place(userPC, u.MustBuild())
		w.core.kernelMode = false
	}
	rep := LockstepRun(fast.core, ref.core, userPC, 16)
	requireOK(t, rep)
	for _, w := range []*world{fast, ref} {
		if tgt, ok := w.core.BP.BTB.Predict(icallPC); !ok || tgt != entry {
			t.Errorf("BTB at %#x = (%#x, %v), want the kernel target %#x", icallPC, tgt, ok, entry)
		}
		if w.core.Stats.Faults != 1 {
			t.Errorf("Stats.Faults = %d, want 1", w.core.Stats.Faults)
		}
	}
	if !rep.FastRes.Fault || rep.FastRes.FaultPC != entry {
		t.Errorf("result %+v, want an SMEP fetch fault at %#x", rep.FastRes, entry)
	}
	if fast.core.Stats.ThreadedInsts != 0 {
		t.Errorf("user mode retired %d instructions from decoded kernel blocks", fast.core.Stats.ThreadedInsts)
	}
	if rep.Steps != 2 || rep.FastRes.Insts != 2 {
		t.Errorf("steps = %d, insts = %d: want only the two user instructions retired",
			rep.Steps, rep.FastRes.Insts)
	}
}

// The oracle must actually detect divergence: skew one core's initial
// register state and demand a report pinned to the first instruction.
func TestLockstepDetectsDivergence(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.Mov(isa.R1, isa.R5)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	})
	fast.core.Regs[isa.R5] = 7
	ref.core.Regs[isa.R5] = 8
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	if rep.OK() {
		t.Fatal("divergence not detected")
	}
	if rep.Div == nil {
		t.Fatal("no divergence record")
	}
	if rep.Div.Index != 0 || rep.Div.PC != entry {
		t.Errorf("divergence at step %d pc %#x, want step 0 pc %#x",
			rep.Div.Index, rep.Div.PC, entry)
	}
	if rep.Div.Op == "" || rep.Div.Op == "<unfetchable>" {
		t.Errorf("decoded op missing from report: %q", rep.Div.Op)
	}
	if !rep.ResultsDiverged {
		t.Error("RunResult divergence not flagged")
	}
}

func TestCompareStepTraces(t *testing.T) {
	a := &StepTrace{PCs: []uint64{1, 2, 3}, Digests: []uint64{10, 20, 30}}
	b := &StepTrace{PCs: []uint64{1, 2, 3}, Digests: []uint64{10, 20, 30}}
	if idx, ok := CompareStepTraces(a, b); !ok || idx != -1 {
		t.Errorf("equal traces: idx=%d ok=%v", idx, ok)
	}
	b.Digests[1] = 99
	if idx, ok := CompareStepTraces(a, b); ok || idx != 1 {
		t.Errorf("digest mismatch: idx=%d ok=%v", idx, ok)
	}
	b.Digests[1] = 20
	b.PCs = b.PCs[:2]
	b.Digests = b.Digests[:2]
	if idx, ok := CompareStepTraces(a, b); ok || idx != 2 {
		t.Errorf("length mismatch: idx=%d ok=%v", idx, ok)
	}
}
