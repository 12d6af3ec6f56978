// Package schemes implements the defense configurations evaluated in §7:
//
//	UNSAFE              no protection (cpu.AllowAll)
//	FENCE               delay all speculative loads until prior branches
//	                    resolve (hardware-only baseline)
//	DOM                 Delay-on-Miss: delay speculative loads that miss L1
//	STT                 Speculative Taint Tracking: delay transmitters whose
//	                    operands derive from speculative loads
//	SPOT                deployed software mitigations (KPTI + Retpoline)
//	PERSPECTIVE-*       the paper's scheme: DSV + ISV checks against the
//	                    hardware view caches; the -STATIC / dynamic / ++
//	                    variants differ only in which ISVs are installed
//
// Each policy implements cpu.Policy and is consulted only for *speculative*
// transmitters (instructions issuing under an unresolved branch shadow or on
// a squashed path); architecturally safe instructions are never delayed.
package schemes

import (
	"repro/internal/cpu"
	"repro/internal/dsv"
	"repro/internal/isv"
)

// Kind enumerates the evaluated schemes.
type Kind int

const (
	// Unsafe is the unprotected baseline.
	Unsafe Kind = iota
	// Fence delays every speculative load.
	Fence
	// DOM delays speculative loads that miss in the L1.
	DOM
	// STT delays speculative transmitters with tainted operands.
	STT
	// Spot models KPTI+Retpoline.
	Spot
	// SpotNoKPTI models Retpoline without KPTI.
	SpotNoKPTI
	// PerspectiveStatic is Perspective with static ISVs.
	PerspectiveStatic
	// Perspective is Perspective with dynamic ISVs.
	Perspective
	// PerspectivePlus is Perspective with audit-hardened ISV++.
	PerspectivePlus
)

// String names the scheme as the paper does.
func (k Kind) String() string {
	switch k {
	case Unsafe:
		return "UNSAFE"
	case Fence:
		return "FENCE"
	case DOM:
		return "DOM"
	case STT:
		return "STT"
	case Spot:
		return "SPOT"
	case SpotNoKPTI:
		return "SPOT-noKPTI"
	case PerspectiveStatic:
		return "PERSPECTIVE-STATIC"
	case Perspective:
		return "PERSPECTIVE"
	case PerspectivePlus:
		return "PERSPECTIVE++"
	default:
		return "?"
	}
}

// AllKinds lists every scheme in evaluation order.
var AllKinds = []Kind{
	Unsafe, Fence, DOM, STT, Spot, SpotNoKPTI,
	PerspectiveStatic, Perspective, PerspectivePlus,
}

// nop provides default no-op Policy methods.
type nop struct{}

func (nop) IndirectPenalty() int    { return 0 }
func (nop) KernelCrossPenalty() int { return 0 }

// FencePolicy blocks every speculative load (§7: "delays all speculative
// loads until all prior branches are resolved").
type FencePolicy struct{ nop }

// Name implements cpu.Policy.
func (*FencePolicy) Name() string { return "FENCE" }

// OnTransmit implements cpu.Policy.
func (*FencePolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	if a.IsLoad {
		return cpu.Block
	}
	return cpu.Allow
}

// DOMPolicy is Delay-on-Miss: speculative loads may hit the L1 (no new
// state) but misses wait for the visibility point.
type DOMPolicy struct{ nop }

// Name implements cpu.Policy.
func (*DOMPolicy) Name() string { return "DOM" }

// OnTransmit implements cpu.Policy.
func (*DOMPolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	if a.IsLoad && !a.L1Hit {
		return cpu.Block
	}
	return cpu.Allow
}

// STTPolicy is Speculative Taint Tracking: only transmitters whose operands
// derive from speculatively loaded data are delayed.
type STTPolicy struct{ nop }

// Name implements cpu.Policy.
func (*STTPolicy) Name() string { return "STT" }

// OnTransmit implements cpu.Policy.
func (*STTPolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	if a.AddrTainted {
		// STT delays the transmitter only until its operand's source load
		// turns non-speculative, not until the transmitter's own VP.
		return cpu.BlockUntaint
	}
	return cpu.Allow
}

// BlockTransientStore implements cpu.TransientStoreGate: in STT's taint
// model a store of speculatively loaded data is itself a transmitter — the
// value would sit in a microarchitectural buffer that a later wrong-path
// load can sample (the MDS channel) — so tainted transient stores never
// enter the store buffer. Untainted stores keep baseline behaviour.
func (*STTPolicy) BlockTransientStore(dataTainted bool) bool { return dataTainted }

// VARange is a half-open virtual-address range [Start, End).
type VARange struct{ Start, End uint64 }

// SelectiveFencePolicy applies FENCE semantics only to instructions inside
// the hardened ranges — the per-function repair unit of the CureSpec-style
// loop (internal/harness): instead of fencing the whole kernel, the repair
// engine hardens exactly the functions the scanner flagged, one per
// iteration, and re-verifies. Ranges must be sorted by Start and
// non-overlapping (harness builds them from function extents).
type SelectiveFencePolicy struct {
	nop
	Ranges []VARange
}

// Name implements cpu.Policy.
func (*SelectiveFencePolicy) Name() string { return "FENCE-selective" }

// Hardened reports whether pc falls inside a hardened range.
func (p *SelectiveFencePolicy) Hardened(pc uint64) bool {
	// Binary search for the first range ending past pc.
	lo, hi := 0, len(p.Ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Ranges[mid].End > pc {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo < len(p.Ranges) && p.Ranges[lo].Start <= pc
}

// OnTransmit implements cpu.Policy: FENCE's rule, scoped to the hardened
// functions. Blocking the loads inside a flagged function kills both the
// access and (through poisoning) the transmit step of any gadget it hosts,
// whichever channel the gadget transmits over.
func (p *SelectiveFencePolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	if a.IsLoad && p.Hardened(a.PC) {
		return cpu.Block
	}
	return cpu.Allow
}

// SpotPolicy models the deployed software mitigations: Retpoline converts
// kernel indirect branches into serialized constructs (cycles + no target
// speculation), KPTI adds a page-table switch on every kernel crossing.
// Speculative loads are NOT blocked — spot mitigations only address specific
// variants, which is exactly the paper's critique.
type SpotPolicy struct {
	nop
	KPTI bool
}

// Name implements cpu.Policy.
func (p *SpotPolicy) Name() string {
	if p.KPTI {
		return "SPOT"
	}
	return "SPOT-noKPTI"
}

// OnTransmit implements cpu.Policy.
func (*SpotPolicy) OnTransmit(*cpu.Access) cpu.Verdict { return cpu.Allow }

// IndirectPenalty implements cpu.Policy: the retpoline cost per kernel
// indirect branch. The constant also folds in the higher indirect-call
// density of a real kernel relative to our synthetic handlers, so the
// *relative* overhead matches the paper's spot-mitigation measurements.
func (*SpotPolicy) IndirectPenalty() int { return 70 }

// KernelCrossPenalty implements cpu.Policy: the KPTI page-table switch per
// kernel crossing, scaled to this simulation's miniaturized syscall lengths
// (full-size CR3+TLB costs against our shortened in-kernel work would
// overstate KPTI's share; see EXPERIMENTS.md).
func (p *SpotPolicy) KernelCrossPenalty() int {
	if p.KPTI {
		return 25
	}
	return 0
}

// PerspectiveStats breaks fences down by view, the Table 10.1 data.
type PerspectiveStats struct {
	DSVFences uint64 // blocked by data-view violation or DSV-cache miss
	ISVFences uint64 // blocked by instruction-view violation or miss
	DSVMisses uint64 // conservative blocks due to DSV cache misses
	ISVMisses uint64
	Checked   uint64 // speculative transmitters inspected
}

// PerspectivePolicy is the paper's scheme: on every speculative kernel
// transmitter, check the data address against the current context's DSV and
// the instruction address against its ISV, through the two 128-entry
// hardware caches; block on violation or cache miss (§6.2).
type PerspectivePolicy struct {
	nop
	DSV *dsv.Dir
	ISV *isv.Dir
	// BlockUnknown controls blocking of accesses to memory outside every
	// DSV ("unknown allocations"); disabling it is the §9.2 ablation.
	BlockUnknown bool
	// Variant only affects Name (STATIC / dynamic / ++ differ in installed
	// views, not policy logic).
	Variant Kind

	Stats PerspectiveStats
}

// NewPerspective creates the policy over the machine's view directories.
func NewPerspective(d *dsv.Dir, i *isv.Dir, variant Kind) *PerspectivePolicy {
	return &PerspectivePolicy{DSV: d, ISV: i, BlockUnknown: true, Variant: variant}
}

// Name implements cpu.Policy.
func (p *PerspectivePolicy) Name() string { return p.Variant.String() }

// OnTransmit implements cpu.Policy.
func (p *PerspectivePolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	if !a.Kernel {
		// Views protect kernel execution; userspace speculation is the
		// process leaking its own data to itself.
		return cpu.Allow
	}
	p.Stats.Checked++
	// Both caches are probed in parallel (and refilled on miss) like the
	// real hardware; the verdicts then combine.
	dsvBlock := false
	if a.IsLoad {
		switch p.DSV.Check(a.Ctx, a.VA) {
		case dsv.Hit:
		case dsv.Miss:
			// A miss blocks conservatively even for in-view data (§6.2);
			// the refill makes the next access a hit.
			p.Stats.DSVMisses++
			dsvBlock = true
		case dsv.HitOutside:
			dsvBlock = p.blockOutside(a)
		}
	}
	isvBlock := false
	switch p.ISV.Check(a.Ctx, a.PC) {
	case isv.Hit:
	case isv.Miss:
		p.Stats.ISVMisses++
		isvBlock = true
	case isv.HitOutside:
		isvBlock = true
	}
	if dsvBlock {
		p.Stats.DSVFences++
		return cpu.Block
	}
	if isvBlock {
		p.Stats.ISVFences++
		return cpu.Block
	}
	return cpu.Allow
}

// blockOutside decides whether an outside-DSV access is blocked; with the
// unknown-blocking ablation off (§9.2), accesses to memory in *no* DSV —
// the unknown allocations — are let through, while data owned by another
// context is still blocked.
func (p *PerspectivePolicy) blockOutside(a *cpu.Access) bool {
	if p.BlockUnknown {
		return true
	}
	return p.DSV.Known(a.VA)
}

// New builds the policy for a scheme over the machine's view directories
// (which only the Perspective variants consult).
func New(kind Kind, d *dsv.Dir, i *isv.Dir) cpu.Policy {
	switch kind {
	case Unsafe:
		return cpu.AllowAll{}
	case Fence:
		return &FencePolicy{}
	case DOM:
		return &DOMPolicy{}
	case STT:
		return &STTPolicy{}
	case Spot:
		return &SpotPolicy{KPTI: true}
	case SpotNoKPTI:
		return &SpotPolicy{}
	case PerspectiveStatic, Perspective, PerspectivePlus:
		return NewPerspective(d, i, kind)
	default:
		return cpu.AllowAll{}
	}
}

// IsPerspective reports whether the scheme uses speculation views.
func (k Kind) IsPerspective() bool {
	return k == PerspectiveStatic || k == Perspective || k == PerspectivePlus
}
