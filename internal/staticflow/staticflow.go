// Package staticflow is the sound static counterpart of the dynamic gadget
// machinery: an abstract interpretation of the pre-decoded kernel text
// (internal/isa DOps via internal/bbcache blocks) over a speculative
// information-flow lattice. Where internal/scanner replays a Kasper-style
// fuzzing campaign (linear walks in randomized coverage order, paying a cost
// model) and the relsec harness judges only the gadgets its drivers reach,
// staticflow computes a whole-image fixpoint: every function, every path,
// every speculative continuation, in one deterministic pass.
//
// # Lattice
//
// Values carry a three-point taint level
//
//	Clean ⊑ Attacker ⊑ Secret
//
// with Attacker marking data derived from syscall arguments (R1..R6 at every
// function entry) and Secret marking data speculatively loaded through an
// attacker-steered address. A Secret value additionally carries its
// provenance: the set of load PCs where the secret entered the register file.
// Provenance is what turns the census into fence synthesis — fencing exactly
// the source loads that appear in the provenance of any value reaching a
// transmitter cuts every secret flow at its origin (see FenceRanges).
//
// # Transfer functions
//
// The per-instruction transfer mirrors internal/scanner's Kasper rules
// exactly — MovImm clears, a small-constant AndImm sanitizes
// (array_index_nospec), Mul with a Secret operand is a Port transmit, a load
// through a Secret address is a Cache transmit, a load forwarded from a store
// of a Secret value is an MDS transmit — so the static result is a sound
// over-approximation of the dynamic census by construction: the scanner's
// linear walk is one path through this CFG and every transfer here is
// pointwise monotone above the scanner's. TestStaticFlowCoversScanner and the
// harness soundness check machine-enforce the containment.
//
// # Speculative-window semantics
//
// Control flow follows the decoded superblocks. Both arms of a conditional
// branch propagate architecturally (either may be the committed path, and a
// mispredict makes the other transiently reachable at full register state).
// Execution also continues past unconditional redirects — Jmp, Ret, Halt,
// IJmp — into the fallthrough, modelling wrong-path fetch, but those edges
// open a speculative window bounded by the core's ROB depth: at most ROB
// instructions propagate before the abstract path is squashed. Calls
// propagate their fallthrough with registers unchanged (matching the
// scanner's intraprocedural view) and contribute their register state to the
// callee's entry for the interprocedural fixpoint in Analyzer.
package staticflow

import (
	"sort"

	"repro/internal/bbcache"
	"repro/internal/isa"
	"repro/internal/kimage"
)

// Level is the taint lattice point of one abstract value.
type Level uint8

const (
	// Clean data is secret-independent and attacker-independent.
	Clean Level = iota
	// Attacker marks data derived from syscall arguments: the attacker
	// steers it, so a load through it reads an attacker-chosen address.
	Attacker
	// Secret marks data speculatively loaded through an attacker-steered
	// address — the transient secret whose transmission the census flags.
	Secret
)

func (l Level) String() string {
	switch l {
	case Clean:
		return "clean"
	case Attacker:
		return "attacker"
	case Secret:
		return "secret"
	}
	return "level?"
}

// Val is one abstract value: a lattice level plus, at Secret, the sorted set
// of source-load PCs the secret flowed from. Prov slices are treated as
// immutable and shared freely across joins.
type Val struct {
	Level Level
	Prov  []uint64
}

// joinVal is the lattice join: level max, provenance union of the Secret
// operands. It reuses an operand's Prov slice when the union adds nothing,
// which keeps the fixpoint's equality checks cheap and allocation low.
func joinVal(a, b Val) Val {
	lvl := max(a.Level, b.Level)
	var prov []uint64
	switch {
	case a.Level == Secret && b.Level == Secret:
		prov = provUnion(a.Prov, b.Prov)
	case a.Level == Secret:
		prov = a.Prov
	case b.Level == Secret:
		prov = b.Prov
	}
	return Val{Level: lvl, Prov: prov}
}

func valEqual(a, b Val) bool {
	if a.Level != b.Level || len(a.Prov) != len(b.Prov) {
		return false
	}
	for i := range a.Prov {
		if a.Prov[i] != b.Prov[i] {
			return false
		}
	}
	return true
}

// provUnion merges two sorted unique PC sets, returning an operand unchanged
// when it already contains the union.
func provUnion(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	if provContains(a, b) {
		return a
	}
	if provContains(b, a) {
		return b
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// provContains reports whether sorted set a contains every element of sorted
// set b.
func provContains(a, b []uint64) bool {
	if len(b) > len(a) {
		return false
	}
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i >= len(a) || a[i] != v {
			return false
		}
	}
	return true
}

// EntryState is the abstract register file at a function entry. Index R0 is
// ignored (reads of R0 are pinned Clean).
type EntryState [isa.NumRegs]Val

// baseEntry is the scanner-parity seed: syscall arguments R1..R6 are
// attacker-controlled at every entry, everything else Clean.
func baseEntry() EntryState {
	var e EntryState
	for r := isa.R1; r <= isa.R6; r++ {
		e[r] = Val{Level: Attacker}
	}
	return e
}

func joinEntry(dst *EntryState, src *EntryState) bool {
	changed := false
	for r := 1; r < isa.NumRegs; r++ {
		j := joinVal(dst[r], src[r])
		if !valEqual(j, dst[r]) {
			dst[r] = j
			changed = true
		}
	}
	return changed
}

// Finding is one statically detected transmit site.
type Finding struct {
	FuncID int
	PC     uint64
	Kind   kimage.GadgetKind
}

// memKey identifies a store-forwarding slot the way the scanner does: by
// (base register, immediate offset).
type memKey struct {
	base isa.Reg
	imm  int64
}

// archWin marks an architectural path: no speculative-window bound applies.
// Speculative continuations start from the core's ROB depth and count down.
const archWin = int32(1) << 30

// state is the abstract machine state at one program point: the register
// file, the store-forwarding slots, and the remaining speculative window.
type state struct {
	regs [isa.NumRegs]Val
	mem  map[memKey]Val
	win  int32
}

func (s *state) get(r isa.Reg) Val {
	if r == isa.R0 {
		return Val{}
	}
	return s.regs[r]
}

func (s *state) set(r isa.Reg, v Val) {
	if r != isa.R0 {
		s.regs[r] = v
	}
}

func (s *state) clone() *state {
	c := &state{regs: s.regs, win: s.win}
	if len(s.mem) > 0 {
		c.mem = make(map[memKey]Val, len(s.mem))
		for k, v := range s.mem {
			c.mem[k] = v
		}
	}
	return c
}

// joinInto merges src into dst, reporting whether dst changed. The window
// joins by max: a point reachable architecturally is analyzed unbounded.
func (dst *state) joinInto(src *state) bool {
	changed := false
	for r := 1; r < isa.NumRegs; r++ {
		j := joinVal(dst.regs[r], src.regs[r])
		if !valEqual(j, dst.regs[r]) {
			dst.regs[r] = j
			changed = true
		}
	}
	for k, v := range src.mem {
		old, ok := dst.mem[k]
		if !ok {
			if dst.mem == nil {
				dst.mem = make(map[memKey]Val, len(src.mem))
			}
			dst.mem[k] = v
			changed = true
			continue
		}
		j := joinVal(old, v)
		if !valEqual(j, old) {
			dst.mem[k] = j
			changed = true
		}
	}
	if src.win > dst.win {
		dst.win = src.win
		changed = true
	}
	return changed
}

// FuncResult is one function's analysis under a given entry state.
type FuncResult struct {
	FuncID int
	// Findings are the transmit sites, sorted by (PC, Kind), deduplicated.
	Findings []Finding
	// Fence is the sorted set of secret-source load PCs whose values reach
	// a transmitter or another trace-visible sink in this function — the
	// PCs static fence synthesis must guard.
	Fence []uint64
	// Calls maps callee function IDs to the joined abstract register state
	// at this function's call sites, the interprocedural contribution.
	Calls map[int]*EntryState
	// Insts counts instructions in the function (for report totals).
	Insts int
}

// funcAnalysis is the per-function abstract interpreter.
type funcAnalysis struct {
	img  *kimage.Image
	prog *bbcache.Program
	rob  int32
	f    *kimage.Func

	in       map[uint64]*state
	leaders  []uint64
	findings map[Finding]bool
	fence    map[uint64]bool
	calls    map[int]*EntryState
}

// analyzeFunc runs the block-level fixpoint for f under entry. It is pure
// with respect to everything but its own locals, so callers may run many
// functions concurrently against a shared (read-only) entry snapshot.
func analyzeFunc(img *kimage.Image, prog *bbcache.Program, rob int, f *kimage.Func, entry *EntryState) FuncResult {
	fa := &funcAnalysis{
		img:      img,
		prog:     prog,
		rob:      int32(rob),
		f:        f,
		in:       map[uint64]*state{},
		findings: map[Finding]bool{},
		fence:    map[uint64]bool{},
		calls:    map[int]*EntryState{},
	}
	for pc := f.VA; pc < f.End(); pc += isa.InstBytes {
		if prog.BlockAt(pc) != nil {
			fa.leaders = append(fa.leaders, pc)
		}
	}
	ent := &state{win: archWin}
	ent.regs = *entry
	fa.in[f.VA] = ent

	// Chaotic iteration in leader order until no block-entry state moves.
	// Functions are small (tens of instructions), so the quadratic sweep
	// is cheaper than worklist bookkeeping.
	for changed := true; changed; {
		changed = false
		for _, pc := range fa.leaders {
			st := fa.in[pc]
			if st == nil {
				continue
			}
			if fa.runBlock(pc, st.clone()) {
				changed = true
			}
		}
	}

	res := FuncResult{FuncID: f.ID, Calls: fa.calls, Insts: f.NumInsts()}
	for fd := range fa.findings {
		//lint:allow determinism -- key collection sorted immediately below
		res.Findings = append(res.Findings, fd)
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	for pc := range fa.fence {
		//lint:allow determinism -- key collection sorted immediately below
		res.Fence = append(res.Fence, pc)
	}
	sort.Slice(res.Fence, func(i, j int) bool { return res.Fence[i] < res.Fence[j] })
	return res
}

// runBlock interprets the block at pc with incoming state st (owned by the
// callee), records findings and sinks, and propagates to successors. It
// reports whether any successor's entry state changed.
func (fa *funcAnalysis) runBlock(pc uint64, st *state) bool {
	blk := fa.prog.BlockAt(pc)
	if blk == nil {
		return false
	}
	end := fa.f.End()
	var term *isa.DOp
	for i := range blk.Ops {
		op := &blk.Ops[i]
		if op.PC >= end {
			// The decoded run continues into the next function; the
			// analysis (like the scanner) stops at the function boundary.
			return false
		}
		if st.win != archWin {
			if st.win <= 0 {
				return false // speculative window exhausted: path squashed
			}
			st.win--
		}
		fa.transfer(op, st)
		if op.Kind.IsControl() {
			term = op
			break
		}
	}
	if term == nil {
		// Run ended at a text gap or undecodable word: no successor.
		return false
	}
	return fa.propagate(term, blk, st)
}

// propagate pushes st across term's outgoing edges. Branch arms are both
// architectural; fallthrough past Jmp/Ret/Halt/IJmp opens a speculative
// window of ROB instructions; call fallthrough is architectural with
// registers unchanged (the callee's effect is modelled interprocedurally).
func (fa *funcAnalysis) propagate(term *isa.DOp, blk *bbcache.Block, st *state) bool {
	changed := false
	arch := func(pc uint64, s *state) {
		if fa.edge(pc, s, s.win) {
			changed = true
		}
	}
	spec := func(pc uint64, s *state) {
		w := s.win
		if w == archWin {
			w = fa.rob
		}
		if fa.edge(pc, s, w) {
			changed = true
		}
	}
	switch term.Kind {
	case isa.DBranch:
		arch(term.Target, st)
		arch(blk.FallPC, st)
	case isa.DJmp:
		arch(term.Target, st)
		spec(blk.FallPC, st)
	case isa.DCall:
		fa.contribute(fa.calleeOf(term.Target), st)
		arch(blk.FallPC, st)
	case isa.DICall:
		for _, id := range fa.f.StaticIndirect {
			fa.contribute(id, st)
		}
		for _, id := range fa.f.IndirectCallees {
			fa.contribute(id, st)
		}
		arch(blk.FallPC, st)
	case isa.DRet, isa.DHalt, isa.DIJmp:
		spec(blk.FallPC, st)
	}
	return changed
}

// edge joins st (at window win) into the block entry at pc, if pc is a
// decoded leader inside the current function.
func (fa *funcAnalysis) edge(pc uint64, st *state, win int32) bool {
	if pc < fa.f.VA || pc >= fa.f.End() || fa.prog.BlockAt(pc) == nil {
		return false
	}
	src := &state{regs: st.regs, mem: st.mem, win: win}
	dst := fa.in[pc]
	if dst == nil {
		fa.in[pc] = src.clone()
		return true
	}
	return dst.joinInto(src)
}

// calleeOf resolves a direct call target to a function ID, or -1.
func (fa *funcAnalysis) calleeOf(target uint64) int {
	callee := fa.img.FuncAt(target)
	if callee == nil || callee.VA != target {
		return -1
	}
	return callee.ID
}

// contribute joins the caller's register state into the callee's entry
// contribution. Memory does not flow across the call, matching the
// scanner's per-function store-forwarding model.
func (fa *funcAnalysis) contribute(callee int, st *state) {
	if callee < 0 {
		return
	}
	c := fa.calls[callee]
	if c == nil {
		c = &EntryState{}
		*c = st.regs
		fa.calls[callee] = c
		return
	}
	var e EntryState = st.regs
	joinEntry(c, &e)
}

// transfer applies one instruction's abstract semantics to st, recording
// findings and fence provenance. The level rules are the scanner's Kasper
// rules verbatim; the provenance bookkeeping rides along.
func (fa *funcAnalysis) transfer(op *isa.DOp, st *state) {
	switch op.Kind {
	case isa.DMovImm:
		st.set(op.Rd, Val{})
	case isa.DAndImm:
		if op.Imm >= 0 && op.Imm < 4096 {
			// Sanitizing mask (array_index_nospec).
			st.set(op.Rd, Val{})
		} else {
			st.set(op.Rd, st.get(op.Rs1))
		}
	case isa.DMul:
		s1, s2 := st.get(op.Rs1), st.get(op.Rs2)
		if s1.Level >= Secret || s2.Level >= Secret {
			fa.found(op.PC, kimage.GadgetPort)
			fa.sink(s1)
			fa.sink(s2)
		}
		st.set(op.Rd, joinVal(s1, s2))
	case isa.DMov, isa.DAdd, isa.DAddImm, isa.DSub, isa.DAnd, isa.DOr,
		isa.DXor, isa.DShlImm, isa.DShrImm, isa.DALUGen:
		st.set(op.Rd, joinVal(st.get(op.Rs1), st.get(op.Rs2)))
	case isa.DLoad:
		addr := st.get(op.Rs1)
		if addr.Level >= Secret {
			// Dependent double fetch: the fill address encodes the secret.
			fa.found(op.PC, kimage.GadgetCache)
			fa.sink(addr)
		}
		v := Val{}
		if addr.Level >= Attacker {
			// Attacker-steered access: the loaded value is a potential
			// secret, sourced at this PC.
			v = Val{Level: Secret, Prov: []uint64{op.PC}}
		}
		if s, ok := st.mem[memKey{op.Rs1, op.Imm}]; ok {
			if s.Level >= Secret {
				// Store-to-load forwarding of a secret: the buffer entry's
				// value is trace-visible (KindSBuf digests it), so the
				// leak is cut at the stored value's sources.
				fa.found(op.PC, kimage.GadgetMDS)
				fa.sink(s)
			}
			v = joinVal(v, s)
		}
		st.set(op.Rd, v)
	case isa.DStore:
		addr, v := st.get(op.Rs1), st.get(op.Rs2)
		// A transient store is itself trace-visible: KindSBuf digests both
		// the address and the stored value, so a Secret in either position
		// distinguishes the pair even if no load ever forwards from it.
		fa.sink(addr)
		fa.sink(v)
		if st.mem == nil {
			st.mem = make(map[memKey]Val)
		}
		st.mem[memKey{op.Rs1, op.Imm}] = v
	case isa.DBranch:
		// A branch on a Secret condition steers fetch by the secret: the
		// divergent path is trace-visible (mispredict/squash events and
		// everything the wrong path touches).
		fa.sink(st.get(op.Rs1))
		fa.sink(st.get(op.Rs2))
	case isa.DICall, isa.DIJmp:
		// Indirect target from a Secret register: the fetched address
		// itself encodes the secret.
		fa.sink(st.get(op.Rs1))
	}
}

func (fa *funcAnalysis) found(pc uint64, kind kimage.GadgetKind) {
	fa.findings[Finding{FuncID: fa.f.ID, PC: pc, Kind: kind}] = true
}

// sink records v's provenance in the fence set when v is Secret: the source
// loads feeding a trace-visible sink are exactly the sites to fence.
func (fa *funcAnalysis) sink(v Val) {
	if v.Level < Secret {
		return
	}
	for _, pc := range v.Prov {
		fa.fence[pc] = true
	}
}
