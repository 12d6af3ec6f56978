package cpu

import (
	"repro/internal/bbcache"
	"repro/internal/isa"
	"repro/internal/obs"
)

// runTransientChecked wraps runTransient with the squash-restoration
// invariant: when a checker is installed, the architectural register file is
// snapshotted around the wrong path and any difference is reported (the
// "squash always rolls back wrong-path state" contract, which the
// fault-injection campaigns stress). brPC is the squashed control
// instruction, for attribution.
func (c *Core) runTransientChecked(pc uint64, budget int, shadowEnd float64, brPC uint64) {
	if c.SecCheck == nil {
		c.runTransient(pc, budget, shadowEnd)
		return
	}
	saved := c.Regs
	c.runTransient(pc, budget, shadowEnd)
	c.SecCheck.SquashRestore(brPC, saved == c.Regs)
}

// runTransient executes the wrong path after a mispredicted branch, indirect
// target, or return, up to budget instructions, then squashes. This is where
// every attack in the paper lives:
//
//   - Wrong-path loads allowed by the Policy really access the cache
//     hierarchy, filling lines whose indices encode secret data (the
//     transmit step of a transient execution gadget, §2.2).
//   - Wrong-path stores go to a private store buffer and are discarded — a
//     squash never alters architectural memory.
//   - Blocked loads produce *poisoned* registers: any dependent address is
//     unknown, so dependent transmitters cannot execute either. This is how
//     blocking the access step of a gadget also kills its transmit step.
//
// Register and call-stack state is shadowed; the predictors are consulted
// but not updated (wrong-path predictor updates are a second-order effect
// the model omits).
//
// Instruction sourcing mirrors the committed path: when a decoded program is
// attached and the core is in kernel mode, the wrong path walks
// internal/bbcache's pre-decoded blocks read-only (decoding is pure, so a
// DOp stream is observably identical to decoding each fetch); user mode and
// block misses go through decodeOne one instruction at a time, and its fetch
// faults — unmapped, SMEP, undecodable word — end the wrong path as a quiet
// squash.
func (c *Core) runTransient(pc uint64, budget int, shadowEnd float64) {
	if budget <= 0 {
		return
	}
	var regs [isa.NumRegs]uint64
	var poisoned [isa.NumRegs]bool
	var tainted [isa.NumRegs]bool
	regs = c.Regs
	// Pin the R0 invariants locally: slot 0 of each shadow array is zero and
	// wr never writes it, so operand reads below are direct array indexing
	// with no zero-register special case.
	regs[0] = 0
	for r := 1; r < isa.NumRegs; r++ {
		tainted[r] = c.taintUntil[r] > c.now
	}
	c.tbuf = c.tbuf[:0]
	// Hoisted optional-interface lookup: one assertion per squash, not one
	// per wrong-path store.
	storeGate, _ := c.Policy.(TransientStoreGate)
	stack := c.tstack[:0]
	defer func() { c.tstack = stack[:0] }()

	wr := func(r isa.Reg, v uint64, p, t bool) {
		if r != isa.R0 {
			regs[r] = v
			poisoned[r] = p
			tainted[r] = t
		}
	}

	// useProg is loop-invariant: the mode cannot flip inside one squash
	// window (EnterKernel/ExitKernel are never on a wrong path).
	useProg := c.prog != nil && c.kernelMode
	// polUnsafe mirrors runThreaded's short-circuit: AllowAll.OnTransmit is
	// a stateless Allow, so under the UNSAFE baseline the Access scratch
	// fill and interface call fold away with no simulated-state effect.
	_, polUnsafe := c.Policy.(AllowAll)
	var blk *bbcache.Block
	var bi int

	for n := 0; n < budget; n++ {
		if blk == nil || bi == len(blk.Ops) || blk.Ops[bi].PC != pc {
			blk, bi = nil, 0
			if useProg {
				blk = c.prog.BlockAt(pc)
			}
			if blk == nil {
				if blk = c.decodeOne(pc, &c.tone); blk == nil {
					return // transient fetch fault: quiet squash
				}
			}
		}
		op := &blk.Ops[bi]
		bi++
		c.Stats.TransientInsts++
		next := pc + isa.InstBytes

		switch op.Kind {
		case isa.DNop:

		case isa.DMul:
			if !polUnsafe {
				c.acc = Access{
					PC: pc, IsLoad: false, Ctx: c.ctx, Kernel: c.kernelMode,
					Transient:   true,
					AddrTainted: tainted[op.Rs1] || tainted[op.Rs2],
				}
			}
			if poisoned[op.Rs1] || poisoned[op.Rs2] {
				wr(op.Rd, 0, true, true)
				break
			}
			if !polUnsafe && c.Policy.OnTransmit(&c.acc) != Allow {
				c.Stats.TransientFences++
				wr(op.Rd, 0, true, true)
				break
			}
			if c.Obs != nil {
				// A transient multiply that issues occupies an execution
				// port for operand-dependent cycles; fold both operands
				// into the observable payload.
				c.Obs.Record(obs.Event{
					Kind: obs.KindPort, PC: pc,
					Obs: regs[op.Rs1] ^ rotl32(regs[op.Rs2]),
				})
			}
			v := isa.EvalALU(isa.AMul, regs[op.Rs1], regs[op.Rs2], op.Imm)
			wr(op.Rd, v, false, tainted[op.Rs1] || tainted[op.Rs2])

		case isa.DMovImm:
			// Immediates cannot be poisoned or tainted.
			wr(op.Rd, isa.EvalALU(isa.AMovImm, regs[op.Rs1], regs[op.Rs2], op.Imm), false, false)

		case isa.DMov, isa.DMovZ, isa.DAdd, isa.DAddImm, isa.DAddImmZ,
			isa.DSub, isa.DAnd, isa.DAndImm, isa.DAndImmZ, isa.DOr,
			isa.DXor, isa.DShlImm, isa.DShlImmZ, isa.DShrImm,
			isa.DShrImmZ, isa.DALUGen:
			if poisoned[op.Rs1] || poisoned[op.Rs2] {
				wr(op.Rd, 0, true, true)
				break
			}
			v := isa.EvalALU(op.AK, regs[op.Rs1], regs[op.Rs2], op.Imm)
			wr(op.Rd, v, false, tainted[op.Rs1] || tainted[op.Rs2])

		case isa.DLoad:
			if poisoned[op.Rs1] {
				// Address unknown: the load cannot issue. Its destination
				// is poisoned, so dependent transmitters are dead too.
				wr(op.Rd, 0, true, true)
				break
			}
			va := regs[op.Rs1] + uint64(op.Imm)
			v, st := c.specLoad(pc, va, op.Size, tainted[op.Rs1])
			switch st {
			case specLoadBlocked:
				wr(op.Rd, 0, true, true)
			case specLoadFault:
				// Transient fault: the access is squashed before
				// architectural effect; stop the wrong path here.
				return
			default:
				wr(op.Rd, v, false, true)
			}

		case isa.DStore:
			if poisoned[op.Rs1] || poisoned[op.Rs2] {
				break
			}
			va := regs[op.Rs1] + uint64(op.Imm)
			if storeGate != nil && storeGate.BlockTransientStore(tainted[op.Rs2]) {
				c.Stats.TransientFences++
				break
			}
			if c.Obs != nil {
				// The buffered (address, value) pair is what an MDS-style
				// sampler reads back, so both are observable payload.
				c.Obs.Record(obs.Event{Kind: obs.KindSBuf, PC: pc, Addr: va, Obs: regs[op.Rs2]})
			}
			c.tbuf = append(c.tbuf, transientStore{va: va, val: regs[op.Rs2], size: op.Size})

		case isa.DBranch:
			if poisoned[op.Rs1] || poisoned[op.Rs2] {
				// Outcome unknown: follow the predictor.
				if c.BP.Cond.Predict(pc) {
					next = op.Target
				}
			} else if isa.EvalCond(op.CK, regs[op.Rs1], regs[op.Rs2]) {
				next = op.Target
			}

		case isa.DJmp:
			next = op.Target

		case isa.DCall:
			stack = append(stack, next)
			next = op.Target

		case isa.DICall:
			if poisoned[op.Rs1] {
				return
			}
			stack = append(stack, next)
			next = regs[op.Rs1]

		case isa.DIJmp:
			if poisoned[op.Rs1] {
				return
			}
			next = regs[op.Rs1]

		case isa.DRet:
			if len(stack) > 0 {
				next = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			} else if t, okR := peekRAS(c); okR {
				next = t
			} else {
				return
			}

		case isa.DFence:
			// lfence on the wrong path stops further transient execution
			// past it.
			return

		case isa.DHalt:
			return
		}
		pc = next
	}
}

// transientStore is one buffered wrong-path store. The buffer is a flat
// slice scanned newest-first: squash windows are short and rarely store
// more than a handful of entries, so a linear scan beats a map — and
// emptying it is a reslice instead of a mapclear per window.
type transientStore struct {
	va   uint64
	val  uint64
	size uint8
}

// tbufLookup finds the newest buffered store at va (store-to-load
// forwarding within the wrong path), preserving the overwrite semantics
// the map gave: the latest store to an address wins.
func (c *Core) tbufLookup(va uint64) (transientStore, bool) {
	for i := len(c.tbuf) - 1; i >= 0; i-- {
		if c.tbuf[i].va == va {
			return c.tbuf[i], true
		}
	}
	return transientStore{}, false
}

// specLoadStatus is specLoad's outcome: the value is usable, the policy
// blocked the transmitter (destination must be poisoned), or the access
// faulted (the wrong path ends).
type specLoadStatus int

const (
	specLoadOK specLoadStatus = iota
	specLoadBlocked
	specLoadFault
)

// specLoad is the single blessed transient-path data accessor: every
// wrong-path load flows through it, in the architecturally mandated order —
// the active Policy (the DSV/ISV check API) rules on the transmitter first,
// then the cache line fills (the covert channel), the security checker
// observes the fill, and only then is the value read, store-buffer forwards
// included. perspective-lint's confine analyzer enforces that no other
// transient-execution code reads simulated memory directly, so a new
// speculation feature cannot bypass the defenses this path consults.
func (c *Core) specLoad(pc, va uint64, size uint8, addrTainted bool) (uint64, specLoadStatus) {
	// Under the UNSAFE baseline the consult is AllowAll's stateless Allow,
	// so it and its Access fill fold away, and the L1 probe runs only when
	// a recorder reads it. AllowAll never blocks, so the fault and fill
	// order below is the gated path's.
	_, unsafe := c.Policy.(AllowAll)
	pa, okA := c.Mem.Resolve(va, size)
	l1Hit := false
	if okA && (!unsafe || c.Obs != nil) {
		l1Hit = c.H.L1D.Lookup(pa)
	}
	if !unsafe {
		c.acc = Access{
			PC: pc, VA: va, IsLoad: true, Ctx: c.ctx, Kernel: c.kernelMode,
			Transient:   true,
			AddrTainted: addrTainted,
			L1Hit:       l1Hit,
		}
		if c.Policy.OnTransmit(&c.acc) != Allow {
			c.Stats.TransientFences++
			return 0, specLoadBlocked
		}
	}
	if !okA {
		return 0, specLoadFault
	}
	if c.Obs != nil && !l1Hit {
		// Only a load that misses the L1 changes microarchitectural state
		// (which is exactly why Delay-on-Miss may allow the hits), so only
		// misses enter the observation trace. Recorded before the fill so a
		// distinguishing trace leads with the PC-attributed load, not the
		// anonymous line fill it causes.
		c.observeTransientLoad(pc, va, pa, size)
	}
	// THE LEAK: a wrong-path load fills a real cache line. LRU updates are
	// deferred (never applied, since this path squashes).
	c.H.AccessData(pa, false)
	if c.SecCheck != nil {
		c.SecCheck.TransientFill(c.ctx, pc, va, c.kernelMode)
	}
	if s, okS := c.tbufLookup(va); okS && s.size == size {
		return s.val, specLoadOK
	}
	return c.Mem.LoadPA(pa, size), specLoadOK
}

// observeTransientLoad records one policy-allowed wrong-path load that
// missed the L1. The digested payload is the address — what the cache
// channel exposes; the *value* is attached as an undigested annotation so a
// distinguishing trace can name the byte that leaked. Reading that value
// takes a direct memory access on the transient path, which is why this
// helper sits beside specLoad in confine's speculation-gate allowlist.
func (c *Core) observeTransientLoad(pc, va, pa uint64, size uint8) {
	c.Obs.Record(obs.Event{Kind: obs.KindSpecLoad, PC: pc, Addr: va, Note: c.Mem.LoadPA(pa, size)})
}

// rotl32 rotates by half a word — cheap operand mixing for the port event.
func rotl32(v uint64) uint64 { return v<<32 | v>>32 }

// peekRAS reads the RAS top without consuming it (wrong-path returns must
// not corrupt the committed predictor state in this model).
func peekRAS(c *Core) (uint64, bool) {
	return c.BP.RAS.Peek()
}
