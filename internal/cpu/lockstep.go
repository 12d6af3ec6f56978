// Lockstep differential oracle: run the same program on a core with its
// decoded program attached (chained, batched block dispatch) and on a core
// without one (every instruction dispatched as a one-op block), and compare
// the full architectural and timing state after every committed
// instruction. Both sides share the one committed-path executor; what the
// oracle checks is everything block dispatch adds — successor chaining,
// per-block counter batching and its reconciliation on a mid-block fault,
// budget trimming, and the decoded program's agreement with the text it was
// built from. The contract is bit-exactness — not "same final answer" but
// the same simulated machine at every instruction boundary. Used by tests
// only; a core with no attached StepTrace pays one nil check per
// instruction.
//
// What the digest covers: everything that describes the simulated machine —
// registers, the scoreboard (per-register ready times and taint horizons),
// the clock, the speculation window, the commit front, call depth, and the
// dispatch-invariant counters. What it deliberately excludes: Stats.Insts
// (block dispatch batches it per block, so it is transiently ahead of
// single-op dispatch mid-block and reconciled at block exit) and the
// host-side dispatch counters (ThreadedInsts, BBLookups, BBHits, BBChains),
// which describe how instructions were dispatched, never the machine.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// StepTrace accumulates one record per committed instruction: the PC and an
// FNV-1a digest of the core's post-instruction state. Attach with
// Core.AttachStepTrace.
type StepTrace struct {
	PCs     []uint64
	Digests []uint64
}

// Len reports the number of recorded steps.
func (t *StepTrace) Len() int { return len(t.PCs) }

// Reset clears the trace, keeping capacity.
func (t *StepTrace) Reset() {
	t.PCs = t.PCs[:0]
	t.Digests = t.Digests[:0]
}

// AttachStepTrace installs t as the core's per-commit recorder; nil
// detaches. The hook fires after each committed-path instruction's
// architectural and timing effects land, identically under block and
// single-op dispatch.
func (c *Core) AttachStepTrace(t *StepTrace) {
	if t == nil {
		c.stepHook = nil
		return
	}
	c.stepHook = func(pc uint64) {
		t.PCs = append(t.PCs, pc)
		t.Digests = append(t.Digests, c.stateDigest())
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// stateDigest hashes the dispatch-invariant simulated-machine state,
// word-wise FNV-1a. Float fields hash by bit pattern: the equivalence
// contract is bit-exact, so 0.1+0.2 and 0.3 must collide only if both
// dispatch modes really produced the same bits.
func (c *Core) stateDigest() uint64 {
	h := uint64(fnvOffset)
	mix := func(w uint64) {
		h ^= w
		h *= fnvPrime
	}
	for i := range c.Regs {
		mix(c.Regs[i])
	}
	mix(math.Float64bits(c.now))
	mix(math.Float64bits(c.specUntil))
	mix(math.Float64bits(c.lastCommit))
	for i := range c.readyAt {
		mix(math.Float64bits(c.readyAt[i]))
	}
	for i := range c.taintUntil {
		mix(math.Float64bits(c.taintUntil[i]))
	}
	mix(uint64(len(c.callStack)))
	s := &c.Stats
	mix(s.Loads)
	mix(s.Stores)
	mix(s.Branches)
	mix(s.Mispredicts)
	mix(s.TransientInsts)
	mix(s.Fences)
	mix(math.Float64bits(s.FenceDelay))
	mix(s.TransientFences)
	mix(s.Faults)
	return h
}

// CompareStepTraces returns (-1, true) when the traces agree step for step
// (same length, same PCs, same digests). Otherwise it returns the first
// disagreeing index and false; a length mismatch diverges at the shorter
// trace's length.
func CompareStepTraces(a, b *StepTrace) (int, bool) {
	n := min(len(a.PCs), len(b.PCs))
	for i := 0; i < n; i++ {
		if a.PCs[i] != b.PCs[i] || a.Digests[i] != b.Digests[i] {
			return i, false
		}
	}
	if len(a.PCs) != len(b.PCs) {
		return n, false
	}
	return -1, true
}

// Divergence pinpoints the first disagreement between two lockstep traces.
type Divergence struct {
	Index int    // committed-instruction index of the first disagreement
	PC    uint64 // fast (block-dispatch) PC at that index (ref PC if fast ended first)
	Op    string // decoded instruction at PC
	// FastPC/RefPC and FastDigest/RefDigest are the raw per-trace values;
	// a zero PC with a zero digest means that trace had already ended.
	FastPC, RefPC         uint64
	FastDigest, RefDigest uint64
}

func (d *Divergence) String() string {
	switch {
	case d.FastPC == d.RefPC:
		return fmt.Sprintf("step %d: state digest diverged at pc %#x (%s): block dispatch %#x, single-op dispatch %#x",
			d.Index, d.PC, d.Op, d.FastDigest, d.RefDigest)
	case d.FastPC == 0 && d.FastDigest == 0:
		return fmt.Sprintf("step %d: block-dispatch trace ended; single-op dispatch continued at pc %#x (%s)",
			d.Index, d.RefPC, d.Op)
	case d.RefPC == 0 && d.RefDigest == 0:
		return fmt.Sprintf("step %d: single-op trace ended; block dispatch continued at pc %#x (%s)",
			d.Index, d.FastPC, d.Op)
	default:
		return fmt.Sprintf("step %d: control flow diverged: block dispatch at pc %#x, single-op dispatch at pc %#x (%s)",
			d.Index, d.FastPC, d.RefPC, d.Op)
	}
}

// ExplainDivergence builds the Divergence record for index idx of two
// traces, decoding the instruction through c's code source. Harness-level
// suites that drive whole machines (rather than LockstepRun) use it to
// render their own first-divergence reports.
func ExplainDivergence(c *Core, fast, ref *StepTrace, idx int) *Divergence {
	d := &Divergence{Index: idx}
	if idx < len(fast.PCs) {
		d.FastPC, d.FastDigest = fast.PCs[idx], fast.Digests[idx]
	}
	if idx < len(ref.PCs) {
		d.RefPC, d.RefDigest = ref.PCs[idx], ref.Digests[idx]
	}
	d.PC = d.FastPC
	if idx >= len(fast.PCs) {
		d.PC = d.RefPC
	}
	d.Op = "<unfetchable>"
	if in := c.fetch(d.PC); in != nil {
		dop := isa.DecodeInst(in, d.PC)
		d.Op = dop.String()
	}
	return d
}

// LockstepReport is LockstepRun's outcome.
type LockstepReport struct {
	Steps           int // committed instructions compared
	FastRes, RefRes RunResult
	ResultsDiverged bool // RunResults differ (checked even when traces agree)
	Div             *Divergence
}

// OK reports full equivalence: identical traces and identical RunResults.
func (r *LockstepReport) OK() bool { return r.Div == nil && !r.ResultsDiverged }

func (r *LockstepReport) String() string {
	if r.OK() {
		return fmt.Sprintf("lockstep: %d steps, equivalent", r.Steps)
	}
	if r.Div != nil {
		return "lockstep: " + r.Div.String()
	}
	return fmt.Sprintf("lockstep: traces agree (%d steps) but results diverged: block dispatch %+v, single-op dispatch %+v",
		r.Steps, r.FastRes, r.RefRes)
}

// LockstepRun executes the same entry on two cores — fast with its decoded
// program attached, ref with none (single-op dispatch) — and compares
// per-instruction state. The caller must have prepared both cores identically (same image,
// same memory contents, same predictor state, same registers); LockstepRun
// only drives and compares. Traces are attached for the duration and
// detached before returning.
func LockstepRun(fast, ref *Core, entry uint64, maxInsts int) LockstepReport {
	var ft, rt StepTrace
	fast.AttachStepTrace(&ft)
	ref.AttachStepTrace(&rt)
	defer fast.AttachStepTrace(nil)
	defer ref.AttachStepTrace(nil)

	fres := fast.Run(entry, maxInsts)
	rres := ref.Run(entry, maxInsts)

	rep := LockstepReport{Steps: ft.Len(), FastRes: fres, RefRes: rres}
	if idx, ok := CompareStepTraces(&ft, &rt); !ok {
		rep.Div = ExplainDivergence(fast, &ft, &rt, idx)
	}
	if fres != rres {
		rep.ResultsDiverged = true
	}
	return rep
}
