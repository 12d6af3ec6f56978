// Package cpu implements the speculative out-of-order timing core that
// stands in for the paper's gem5 O3 model (Table 7.1). It is execute-driven:
// kernel code compiled to the internal/isa instruction set runs against real
// simulated memory, so a mispredicted branch genuinely executes wrong-path
// instructions whose loads fill real cache lines — the covert channel every
// Spectre variant transmits over — before being squashed.
//
// # Timing model
//
// Instead of a cycle-by-cycle pipeline, the core uses the standard
// interval-simulation compromise: a dependence-chain scoreboard. Fetch
// advances 1/width cycles per instruction, a ring of the last ROB-size
// commit times bounds how far fetch may run ahead, per-register ready times
// serialize dependent instructions, and every branch opens a *shadow*
// lasting until its resolution. An instruction whose issue time falls inside
// a shadow is speculative: it may be delayed to the shadow's end (its
// Visibility Point, §6.2) by the active defense Policy. This reproduces the
// paper's overhead structure exactly — FENCE pays on every shadowed load,
// Delay-on-Miss only on shadowed L1 misses, STT only on shadowed tainted
// transmitters, Perspective only on view violations and view-cache misses —
// at simulation speeds ~1000x gem5.
package cpu

import (
	"math"

	"repro/internal/bbcache"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sec"
)

// Config holds the core parameters of Table 7.1.
type Config struct {
	Width             int // issue width (8)
	ROB               int // reorder buffer entries (192)
	MispredictPenalty int // frontend redirect cycles after a squash
	// ExecDelay is the fetch-to-execute pipeline depth: a control
	// instruction cannot resolve earlier than ExecDelay cycles after its
	// fetch slot, which is what gives branch shadows their realistic
	// length (and FENCE-style defenses their cost).
	ExecDelay       int
	KernelEntryCost int // base user->kernel mode switch cost, each way
	MulLatency      int // variable-latency port op (the Port channel)
	MaxTransient    int // cap on wrong-path instructions per squash
	// FencePenalty is the issue/LSQ occupancy cost charged to the frontend
	// per committed-path fence: a delayed load holds its load-queue entry
	// and re-issues at the visibility point, consuming scheduler bandwidth
	// even when its latency is hidden.
	FencePenalty float64
}

// DefaultConfig returns the Table 7.1 core: 8-issue, 192-entry ROB.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		ROB:               192,
		MispredictPenalty: 12,
		ExecDelay:         10,
		KernelEntryCost:   120,
		MulLatency:        3,
		MaxTransient:      64,
		FencePenalty:      0.2,
	}
}

// CodeSource resolves instruction fetches. The kernel image and per-process
// user code segments compose into one source. A nil result is an unfetchable
// address; the returned pointer aliases the source's immutable storage (the
// core never writes through it), saving a struct copy per simulated fetch.
type CodeSource interface {
	FetchInst(va uint64) *isa.Inst
}

// Tracer observes committed function entries; the ftrace-equivalent
// (internal/ktrace) implements it to build dynamic ISVs. Wrong-path targets
// are never reported.
type Tracer interface {
	OnFuncEnter(va uint64)
}

// Verdict is a Policy's decision about one speculative transmitter.
type Verdict int

const (
	// Allow lets the instruction execute speculatively (with side effects).
	Allow Verdict = iota
	// Block delays the instruction until its visibility point; it has no
	// microarchitectural side effects before then.
	Block
	// BlockUntaint delays the instruction only until its tainted operand's
	// source load becomes non-speculative (STT's rule: the transmitter may
	// go as soon as its data provably isn't transient).
	BlockUntaint
)

// Access describes one speculative transmitter for Policy inspection.
type Access struct {
	PC          uint64  // instruction virtual address
	VA          uint64  // data virtual address (loads only)
	IsLoad      bool    // true for loads, false for variable-latency ALU
	Ctx         sec.Ctx // current execution context (ASID / cgroup)
	Kernel      bool    // executing in kernel mode
	Transient   bool    // on a squashed (wrong) path
	L1Hit       bool    // data present in L1 (for Delay-on-Miss)
	AddrTainted bool    // address depends on speculatively loaded data (STT)
}

// FaultHook injects microarchitectural faults (internal/faultinject). Each
// method is an opportunity poll: a deterministic, seeded implementation
// decides per event whether the fault fires. All call sites are nil-guarded.
type FaultHook interface {
	// SpuriousSquash reports whether the correctly predicted branch at pc
	// should be squashed anyway: the frontend transiently runs the
	// alternate direction before redirecting, as after a real mispredict.
	SpuriousSquash(pc uint64) bool
	// DelaySwitch reports whether the context switch from → to should
	// leave the stale view context (ASID) in effect until the core next
	// leaves the kernel — a lost/late view-switch message.
	DelaySwitch(from, to sec.Ctx) bool
}

// Policy is the pluggable defense consulted for every transmitter whose
// issue falls inside a branch shadow (i.e. every *speculative* transmitter).
// Non-speculative instructions are never blocked.
type Policy interface {
	Name() string
	// OnTransmit decides whether the speculative transmitter may proceed.
	OnTransmit(a *Access) Verdict
	// IndirectPenalty returns extra cycles charged per kernel indirect
	// branch; a positive value also suppresses indirect-target speculation
	// (how Retpoline is modelled).
	IndirectPenalty() int
	// KernelCrossPenalty returns extra cycles per user/kernel crossing
	// (how KPTI is modelled).
	KernelCrossPenalty() int
}

// TransientStoreGate is an optional Policy extension consulted before a
// wrong-path store enters the transient store buffer. STT implements it: in
// its taint model a store of speculatively loaded data is a transmitter (the
// value would sit in a microarchitectural buffer a later wrong-path load can
// sample — the MDS channel), so such stores never reach the buffer. The gate
// is deliberately NOT routed through OnTransmit: it guards a buffer write,
// not a delayed issue, and keeping it separate leaves every policy's
// Table 10.1 fence accounting untouched. Policies without the extension keep
// the baseline behaviour (every transient store buffers).
type TransientStoreGate interface {
	// BlockTransientStore reports whether a transient store whose data
	// operand carries the given taint must be kept out of the store buffer.
	BlockTransientStore(dataTainted bool) bool
}

// AllowAll is the UNSAFE hardware baseline: no speculation control at all.
type AllowAll struct{}

// Name implements Policy.
func (AllowAll) Name() string { return "unsafe" }

// OnTransmit implements Policy.
func (AllowAll) OnTransmit(*Access) Verdict { return Allow }

// IndirectPenalty implements Policy.
func (AllowAll) IndirectPenalty() int { return 0 }

// KernelCrossPenalty implements Policy.
func (AllowAll) KernelCrossPenalty() int { return 0 }

// Stats aggregates core counters.
type Stats struct {
	Insts          uint64
	Loads          uint64
	Stores         uint64
	Branches       uint64
	Mispredicts    uint64
	TransientInsts uint64
	// Fences counts speculative transmitters a policy blocked on the
	// committed path (the paper's "fenced instructions", Table 10.1).
	Fences uint64
	// FenceDelay accumulates the cycles those blocks cost (time moved to
	// the visibility point).
	FenceDelay float64
	// TransientFences counts blocks on squashed paths (security events).
	TransientFences uint64
	KernelEntries   uint64
	Faults          uint64

	// Dispatch counters (host-side only: they describe how instructions
	// were dispatched, never the simulated machine, so they are excluded
	// from the lockstep digest). ThreadedInsts counts committed
	// instructions retired from the decoded program (single-op dispatch is
	// not counted); BBLookups/BBHits measure the PC-indexed block cache
	// (chained transitions bypass it and count as BBChains).
	ThreadedInsts uint64
	BBLookups     uint64
	BBHits        uint64
	BBChains      uint64
}

// RunResult reports one Run invocation.
type RunResult struct {
	Cycles    float64 // simulated cycles consumed by this run
	Insts     uint64  // committed instructions
	Ret       uint64  // R1 at the terminating sysret/ret
	Fault     bool    // fetch or data abort on the committed path
	FaultPC   uint64  // PC of the faulting instruction
	FaultVA   uint64  // data VA for data aborts
	Truncated bool    // instruction budget exhausted (codegen bug guard)
}

// Core is one simulated hardware thread.
type Core struct {
	Cfg    Config
	Code   CodeSource
	Mem    *memsim.Mem
	H      *cache.Hierarchy
	BP     *predict.Predictor
	Policy Policy
	Tracer Tracer

	// Fault, when set, injects microarchitectural faults: spurious
	// squashes at resolved branches and delayed view-context switches.
	Fault FaultHook
	// SecCheck, when set, receives invariant-relevant events (transient
	// cache fills, squash restoration) for comparison against the
	// architectural view state (sec.Checker).
	SecCheck sec.Checker
	// Obs, when set, records the observation trace (internal/obs): the
	// core contributes wrong-path loads, transient store-buffer and port
	// events, and squash timings. Every site is nil-guarded, so a machine
	// without a recorder pays only the predicate.
	Obs *obs.Recorder

	// Regs is the architectural register file; callers marshal syscall
	// arguments here before Run.
	Regs [isa.NumRegs]uint64

	Stats Stats

	now        float64
	readyAt    [isa.NumRegs]float64
	taintUntil [isa.NumRegs]float64
	specUntil  float64
	commitRing []float64
	commitIdx  int
	lastCommit float64
	callStack  []uint64

	ctx        sec.Ctx
	kernelMode bool

	// pendingCtx holds a context switch an injected DelaySwitch fault is
	// holding back; it is applied when the core next leaves the kernel.
	pendingCtx    sec.Ctx
	hasPendingCtx bool

	lastFetchLine uint64

	// acc is the scratch Access handed to Policy.OnTransmit. Policies only
	// inspect it during the call (none retains the pointer), so reusing one
	// field keeps the per-transmitter Access literal from escaping to the
	// heap on every shadowed load/multiply.
	acc Access
	// tbuf, tstack and tone are runTransient's store buffer, shadow call
	// stack and single-op block, hoisted here so a squash does not allocate.
	tbuf   []transientStore
	tstack []uint64
	tone   oneOpBlock

	// prog is the pre-decoded program block dispatch walks (SetProgram).
	// Nil runs every instruction through single-op dispatch.
	prog *bbcache.Program
	// one backs the committed path's single-op blocks (decodeOne).
	// runTransient uses tone instead, so a squash inside a single-op
	// dispatch cannot overwrite the op still executing.
	one oneOpBlock

	// stepHook, when set, is invoked with the PC of every committed-path
	// instruction after its architectural and timing effects land — the
	// lockstep differential oracle's tap point. Test-only: the hook fires
	// identically under block and single-op dispatch.
	stepHook func(pc uint64)

	// L0 line-lookaside micro-caches (l0.go): committed-path host-side
	// shortcuts in front of L1D/L1I, validated by the caches' generation
	// counters. l0off disables them for differential testing.
	l0d      [l0Size]l0Entry
	l0i      [l0Size]l0Entry
	l0dShift uint
	l0iShift uint
	l0off    bool
}

// New builds a core around the given subsystems with an AllowAll policy.
func New(cfg Config, code CodeSource, mem *memsim.Mem, h *cache.Hierarchy, bp *predict.Predictor) *Core {
	c := &Core{
		Cfg:        cfg,
		Code:       code,
		Mem:        mem,
		H:          h,
		BP:         bp,
		Policy:     AllowAll{},
		commitRing: make([]float64, cfg.ROB),
	}
	if h != nil {
		c.l0dShift = h.L1D.LineShift()
		c.l0iShift = h.L1I.LineShift()
	}
	return c
}

// Now reports the current simulated cycle.
func (c *Core) Now() float64 { return c.now }

// Advance charges flat cycles (userspace think time between syscalls; the
// datacenter apps use this so their kernel-time fraction matches §7).
func (c *Core) Advance(cycles float64) { c.now += cycles }

// Ctx reports the current execution context.
func (c *Core) Ctx() sec.Ctx { return c.ctx }

// KernelMode reports whether the core is executing kernel code.
func (c *Core) KernelMode() bool { return c.kernelMode }

// SetCtx switches the execution context (scheduler context switch). The
// predictors are deliberately NOT flushed: shared, untagged predictor state
// across contexts is what enables the cross-context attacks of §4.1. An
// injected DelaySwitch fault keeps the stale context in effect — view
// checks run against the wrong ASID — until the core next exits the kernel.
func (c *Core) SetCtx(ctx sec.Ctx) {
	if c.Fault != nil && ctx != c.ctx && c.Fault.DelaySwitch(c.ctx, ctx) {
		c.pendingCtx, c.hasPendingCtx = ctx, true
		return
	}
	c.ctx = ctx
	c.hasPendingCtx = false
}

// EnterKernel charges the mode-switch cost and flips to kernel mode.
func (c *Core) EnterKernel() {
	c.kernelMode = true
	c.now += float64(c.Cfg.KernelEntryCost + c.Policy.KernelCrossPenalty())
	c.Stats.KernelEntries++
}

// ExitKernel charges the return cost and flips back to user mode. A
// fault-delayed context switch is resolved here: the stale-ASID window an
// injected DelaySwitch opened ends with the kernel run it covered.
func (c *Core) ExitKernel() {
	c.kernelMode = false
	c.now += float64(c.Cfg.KernelEntryCost/2 + c.Policy.KernelCrossPenalty())
	if c.hasPendingCtx {
		c.ctx, c.hasPendingCtx = c.pendingCtx, false
	}
}

func (c *Core) tainted(r isa.Reg, at float64) bool {
	return r != isa.R0 && c.taintUntil[r] > at
}

// commit records one instruction's commit time and enforces ROB occupancy:
// fetch may not run more than ROB instructions ahead of the oldest
// uncommitted instruction.
func (c *Core) commit(t float64) {
	if t < c.lastCommit {
		t = c.lastCommit // in-order commit
	}
	c.lastCommit = t
	c.commitRing[c.commitIdx] = t
	if c.commitIdx++; c.commitIdx == len(c.commitRing) {
		c.commitIdx = 0
	}
	// The slot we will overwrite ROB instructions from now is the commit
	// time of the instruction exactly ROB ago; fetch stalls behind it.
	if oldest := c.commitRing[c.commitIdx]; c.now < oldest {
		c.now = oldest
	}
}

// fetchTiming charges I-cache miss latency when fetch crosses into a new
// 64-byte line. The same-line case stays inlinable; the crossing pays a
// call.
func (c *Core) fetchTiming(pc uint64) {
	if line := pc >> 6; line != c.lastFetchLine {
		c.fetchTimingLine(pc, line)
	}
}

func (c *Core) fetchTimingLine(pc, line uint64) {
	c.lastFetchLine = line
	la := pc &^ 63
	if c.l0Inst(la) {
		return // L1I MRU re-hit: lat == L1Lat, no charge
	}
	lat, _ := c.H.AccessInst(la)
	c.l0InstInstall(la)
	if lat > c.H.L1Lat {
		c.now += float64(lat - c.H.L1Lat)
	}
}

// Run executes starting at entry until a terminating Halt, a return from the
// entry frame, a fault, or maxInsts committed instructions. The caller sets
// up c.Regs first; R1 at exit is the conventional return value. Every
// committed instruction dispatches through runThreaded: as part of a decoded
// block when the core is in kernel mode with a program attached, as a
// single-op block otherwise.
func (c *Core) Run(entry uint64, maxInsts int) RunResult {
	start := c.now
	var res RunResult
	baseDepth := len(c.callStack)
	c.traceEnter(entry)
	c.runThreaded(entry, maxInsts, &res, baseDepth)
	// Unwind any frames left by a truncated/faulted run.
	if len(c.callStack) > baseDepth {
		c.callStack = c.callStack[:baseDepth]
	}
	// Drain: the run is not over until its last instruction commits. This
	// is where the cost of loads delayed to their visibility point lands.
	if c.lastCommit > c.now {
		c.now = c.lastCommit
	}
	res.Cycles = c.now - start
	return res
}

func (c *Core) traceEnter(va uint64) {
	if c.Tracer != nil && c.kernelMode {
		c.Tracer.OnFuncEnter(va)
	}
}

// squashWindow runs one wrong path and charges the redirect. With a
// recorder attached it brackets the run with the window's observable
// endpoints: the predictor reports the mispredict opening it, and the core
// records the squash with the resolve time's bit pattern — squash *timing*
// is part of the observation trace, because a resolve delayed by a
// secret-dependent miss is itself a channel.
func (c *Core) squashWindow(brPC, wrongPC uint64, resolve float64) {
	c.BP.NoteMispredict(brPC, wrongPC)
	c.runTransientChecked(wrongPC, c.transientBudget(resolve), brPC)
	if c.Obs != nil {
		c.Obs.Record(obs.Event{Kind: obs.KindSquash, PC: brPC, Addr: wrongPC, Obs: math.Float64bits(resolve)})
	}
	c.now = resolve + float64(c.Cfg.MispredictPenalty)
}

// transientBudget estimates how many wrong-path instructions the frontend
// fetches before the squash redirects it.
func (c *Core) transientBudget(resolve float64) int {
	n := int((resolve-c.now)*float64(c.Cfg.Width)) + 2*c.Cfg.Width
	if n > c.Cfg.MaxTransient {
		n = c.Cfg.MaxTransient
	}
	if n < 0 {
		n = 0
	}
	return n
}
