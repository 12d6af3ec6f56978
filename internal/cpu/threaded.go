// The committed-path executor. Run dispatches every instruction through
// runThreaded's loop over decoded isa.DOp blocks. In kernel mode with a
// decoded program attached, the loop walks internal/bbcache's pre-decoded
// superblocks: it retires each block's instruction count in one batch and
// follows build-time successor chains without re-entering the PC-indexed
// lookup. Everywhere else — user mode, no program attached, a kernel PC no
// decoded block starts at — decodeOne fetches the single word at the PC and
// decodes it into a one-op block that the same loop runs. Both dispatch
// modes share every op case, so the committed path has one semantics; the
// lockstep oracle (LockstepRun) and FuzzBlockDecode compare chained, batched
// block dispatch against single-op dispatch of the same code.
//
// Wrong-path execution inside squash windows belongs to runTransient
// (reached through squashWindow), which walks the same decoded blocks
// read-only and calls decodeOne on its own block misses.
package cpu

import (
	"repro/internal/bbcache"
	"repro/internal/isa"
	"repro/internal/memsim"
)

// SetThreadedSource installs the decoded-program source consulted at each
// Run entry (kimage.Image.Decoded: rebuilds if the text version moved, else
// returns the cached program). A nil source — the default — runs every
// instruction through single-op dispatch; tests use that as the lockstep
// reference.
func (c *Core) SetThreadedSource(src func() *bbcache.Program) { c.progSrc = src }

// oneOpBlock is the storage behind a decodeOne result: a single decoded
// instruction presented as a block with no chained successors.
type oneOpBlock struct {
	op  [1]isa.DOp
	blk bbcache.Block
}

// decodeOne fetches the word at pc and decodes it into a one-op block held
// in dst. It returns nil when the fetch faults: an unmapped PC, a user-mode
// fetch of kernel text (SMEP), or a word outside the ISA, which the core
// treats as the fetch fault it is rather than executing.
func (c *Core) decodeOne(pc uint64, dst *oneOpBlock) *bbcache.Block {
	inst := c.Code.FetchInst(pc)
	if inst == nil || (!c.kernelMode && memsim.IsKernel(pc)) {
		return nil
	}
	if dst.op[0] = isa.DecodeInst(inst, pc); dst.op[0].Kind == isa.DBad {
		return nil
	}
	// The successor links stay nil: dispatch after a one-op block always
	// looks its next PC up.
	dst.blk.Ops = dst.op[:]
	dst.blk.FallPC = pc + isa.InstBytes
	return &dst.blk
}

// Scoreboard-invariant exploited throughout the dispatch loop: Regs[R0],
// readyAt[R0] and taintUntil[R0] are never written (every writeback site
// guards Rd != R0, and callers marshal arguments only into R1 and up), so
// they are identically zero. Reading them through the plain arrays instead
// of an R0-checking helper is therefore value-identical — max(x, 0) == x
// for the non-negative times the scoreboard holds — and it lets every ALU
// form share one general writeback tail: the *Z decode specializations
// compute the same floats through the same operations, just with
// provably-zero Rs2 terms.

// runThreaded executes committed-path instructions starting at pc until the
// run ends: a terminating Halt, a return from the entry frame, a fault, or
// maxInsts committed instructions. A block that would cross the budget is
// cut to the instructions left, so truncation lands on exactly the budget.
func (c *Core) runThreaded(pc uint64, maxInsts int, res *RunResult, baseDepth int) {
	// User mode never dispatches kernel blocks: its fetches go through
	// decodeOne, which enforces SMEP. The mode cannot flip inside one Run.
	prog := c.prog
	if !c.kernelMode {
		prog = nil
	}
	budget := uint64(maxInsts)
	fetchSlot := 1.0 / float64(c.Cfg.Width)
	execDelay := float64(c.Cfg.ExecDelay)
	// polUnsafe short-circuits the speculative-transmitter consult when the
	// policy is the UNSAFE baseline: AllowAll.OnTransmit is stateless and
	// Cache.Lookup is read-only, so skipping the Access fill + interface
	// call + L1 probe is invisible to simulated state. Concrete-type check
	// so any real policy (including one wrapping AllowAll) keeps the full
	// consult — Perspective fills view caches inside OnTransmit.
	_, polUnsafe := c.Policy.(AllowAll)

	var blk *bbcache.Block
	for {
		if res.Insts >= budget {
			res.Truncated = true
			return
		}
		if blk == nil {
			if prog != nil {
				c.Stats.BBLookups++
				if blk = prog.BlockAt(pc); blk != nil {
					c.Stats.BBHits++
				}
			}
			if blk == nil {
				if blk = c.decodeOne(pc, &c.one); blk == nil {
					res.Fault = true
					res.FaultPC = pc
					c.Stats.Faults++
					return
				}
			}
		}
		ops := blk.Ops
		if left := budget - res.Insts; uint64(len(ops)) > left {
			ops = ops[:left]
		}
		// Counter batching: the whole block retires or the exit path
		// reconciles, so the per-op loop touches no Stats fields for the
		// common kinds. ThreadedInsts counts only instructions retired from
		// the decoded program.
		res.Insts += uint64(len(ops))
		c.Stats.Insts += uint64(len(ops))
		if blk != &c.one.blk {
			c.Stats.ThreadedInsts += uint64(len(ops))
		}
		// Block entry: the previous fetch line is dynamic state, so the
		// first op always takes the full line check; interior ops use the
		// decode-time crossing flag.
		c.fetchTiming(ops[0].PC)

		var (
			nb       *bbcache.Block
			npc      uint64
			haveNext bool
			stop     bool
		)
		for i := range ops {
			op := &ops[i]
			if i > 0 && op.LineCross {
				c.fetchTimingLine(op.PC, op.PC>>6)
			}
			c.now += fetchSlot

			// alu routes the simple ALU forms through the shared writeback
			// tail below the switch; v is their result.
			alu := false
			var v uint64

			switch op.Kind {
			case isa.DNop:
				c.commit(c.now)

			case isa.DMov, isa.DMovZ:
				v, alu = c.Regs[op.Rs1], true

			case isa.DAddImm, isa.DAddImmZ:
				v, alu = c.Regs[op.Rs1]+uint64(op.Imm), true

			case isa.DAndImm, isa.DAndImmZ:
				v, alu = c.Regs[op.Rs1]&uint64(op.Imm), true

			case isa.DShlImm, isa.DShlImmZ:
				v, alu = c.Regs[op.Rs1]<<(uint64(op.Imm)&63), true

			case isa.DShrImm, isa.DShrImmZ:
				v, alu = c.Regs[op.Rs1]>>(uint64(op.Imm)&63), true

			case isa.DMovImm:
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				done := startT + 1
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = uint64(op.Imm)
					c.readyAt[op.Rd] = done
					c.taintUntil[op.Rd] = 0 // immediates clear taint
				}
				c.commit(done)

			case isa.DAdd:
				v, alu = c.Regs[op.Rs1]+c.Regs[op.Rs2], true

			case isa.DSub:
				v, alu = c.Regs[op.Rs1]-c.Regs[op.Rs2], true

			case isa.DAnd:
				v, alu = c.Regs[op.Rs1]&c.Regs[op.Rs2], true

			case isa.DOr:
				v, alu = c.Regs[op.Rs1]|c.Regs[op.Rs2], true

			case isa.DXor:
				v, alu = c.Regs[op.Rs1]^c.Regs[op.Rs2], true

			case isa.DALUGen:
				v, alu = isa.EvalALU(op.AK, c.Regs[op.Rs1], c.Regs[op.Rs2], op.Imm), true

			case isa.DMul:
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				// A multiply is a Port-channel transmitter: under STT-like
				// policies a tainted speculative multiply must wait.
				if startT < c.specUntil && !polUnsafe {
					c.acc = Access{
						PC: op.PC, IsLoad: false, Ctx: c.ctx, Kernel: c.kernelMode,
						AddrTainted: c.tainted(op.Rs1, startT) || c.tainted(op.Rs2, startT),
					}
					switch c.Policy.OnTransmit(&c.acc) {
					case Block:
						c.Stats.Fences++
						c.Stats.FenceDelay += c.specUntil - startT
						startT = c.specUntil
						c.now += c.Cfg.FencePenalty
					case BlockUntaint:
						c.Stats.Fences++
						if u := max(c.taintUntil[op.Rs1], c.taintUntil[op.Rs2]); u > startT {
							c.Stats.FenceDelay += u - startT
							startT = u
						}
					}
				}
				mv := c.Regs[op.Rs1] * c.Regs[op.Rs2]
				done := startT + float64(c.Cfg.MulLatency)
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = mv
					c.readyAt[op.Rd] = done
					t := c.taintUntil[op.Rs1]
					if t2 := c.taintUntil[op.Rs2]; t2 > t {
						t = t2
					}
					c.taintUntil[op.Rd] = t
				}
				c.commit(done)

			case isa.DLoad:
				c.Stats.Loads++
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				va := c.Regs[op.Rs1] + uint64(op.Imm)
				pa := c.Mem.ResolveFast(va, op.Size)
				okA := pa != memsim.ResolveMiss
				if !okA {
					pa, okA = c.Mem.Resolve(va, op.Size)
				}
				if !okA {
					res.Fault = true
					res.FaultPC, res.FaultVA = op.PC, va
					c.Stats.Faults++
					unretired := uint64(len(ops) - i - 1)
					res.Insts -= unretired
					c.Stats.Insts -= unretired
					c.Stats.ThreadedInsts -= unretired
					stop = true
					break
				}
				if startT < c.specUntil && !polUnsafe {
					c.acc = Access{
						PC: op.PC, VA: va, IsLoad: true, Ctx: c.ctx, Kernel: c.kernelMode,
						L1Hit:       c.H.L1D.Lookup(pa),
						AddrTainted: c.tainted(op.Rs1, startT),
					}
					switch c.Policy.OnTransmit(&c.acc) {
					case Block:
						c.Stats.Fences++
						c.Stats.FenceDelay += c.specUntil - startT
						startT = c.specUntil // wait for the visibility point
						c.now += c.Cfg.FencePenalty
					case BlockUntaint:
						// STT integrates the delay into wakeup: no re-issue
						// cost, only the taint-expiry wait.
						c.Stats.Fences++
						if u := c.taintUntil[op.Rs1]; u > startT {
							c.Stats.FenceDelay += u - startT
							startT = u
						}
					}
				}
				lat := c.l0DataFast(pa)
				if lat < 0 {
					lat = c.l0DataSlow(pa)
				}
				v := c.Mem.LoadPA(pa, op.Size)
				done := startT + float64(lat)
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = v
					c.readyAt[op.Rd] = done
					// A value obtained speculatively is tainted until the
					// shadow resolves.
					if startT < c.specUntil {
						c.taintUntil[op.Rd] = c.specUntil
					} else {
						c.taintUntil[op.Rd] = 0
					}
				}
				c.commit(done)

			case isa.DStore:
				c.Stats.Stores++
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				va := c.Regs[op.Rs1] + uint64(op.Imm)
				pa := c.Mem.ResolveFast(va, op.Size)
				okA := pa != memsim.ResolveMiss
				if !okA {
					pa, okA = c.Mem.Resolve(va, op.Size)
				}
				if !okA {
					res.Fault = true
					res.FaultPC, res.FaultVA = op.PC, va
					c.Stats.Faults++
					unretired := uint64(len(ops) - i - 1)
					res.Insts -= unretired
					c.Stats.Insts -= unretired
					c.Stats.ThreadedInsts -= unretired
					stop = true
					break
				}
				c.Mem.StorePA(pa, op.Size, c.Regs[op.Rs2])
				if c.l0DataFast(pa) < 0 {
					c.l0DataSlow(pa)
				}
				c.commit(startT + 1)

			case isa.DBranch:
				c.Stats.Branches++
				startT := c.now + execDelay
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				resolve := startT + 1
				taken := isa.EvalCond(op.CK, c.Regs[op.Rs1], c.Regs[op.Rs2])
				predicted := c.BP.Cond.Predict(op.PC)
				c.BP.Cond.Update(op.PC, taken)
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				if predicted != taken {
					c.Stats.Mispredicts++
					wrong := blk.FallPC
					if predicted {
						wrong = op.Target
					}
					c.squashWindow(op.PC, wrong, resolve)
				} else if c.Fault != nil && c.Fault.SpuriousSquash(op.PC) {
					// Injected fault: a correctly predicted branch is
					// squashed anyway. The frontend transiently runs the
					// untaken direction before the redirect — wrong-path
					// execution where a healthy pipeline has none — and
					// pays the full redirect penalty. Architectural state
					// must survive (the checker asserts it).
					wrong := op.Target
					if taken {
						wrong = blk.FallPC
					}
					c.squashWindow(op.PC, wrong, resolve)
				}
				c.commit(resolve)
				if taken {
					nb, npc = blk.SuccTaken, op.Target
				} else {
					nb, npc = blk.SuccFall, blk.FallPC
				}
				haveNext = true

			case isa.DJmp:
				c.commit(c.now)
				nb, npc, haveNext = blk.Succ, op.Target, true

			case isa.DCall:
				c.callStack = append(c.callStack, blk.FallPC)
				c.BP.RAS.Push(blk.FallPC)
				c.commit(c.now)
				c.traceEnter(op.Target)
				nb, npc, haveNext = blk.Succ, op.Target, true

			case isa.DICall, isa.DIJmp:
				c.Stats.Branches++
				startT := c.now + execDelay
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				resolve := startT + 1
				actual := c.Regs[op.Rs1]
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				if p := c.Policy.IndirectPenalty(); p > 0 && c.kernelMode {
					// Retpoline: the indirect branch is converted into a
					// serialized construct — extra cycles, no target
					// speculation.
					c.now = resolve + float64(p)
				} else {
					predicted, okP := c.BP.BTB.Predict(op.PC)
					if okP && predicted != actual {
						// Speculative control-flow hijack window (Spectre v2).
						c.Stats.Mispredicts++
						c.squashWindow(op.PC, predicted, resolve)
					} else if !okP {
						// BTB miss: the frontend stalls until resolution.
						c.now = resolve
					}
				}
				c.BP.BTB.Update(op.PC, actual)
				if op.Kind == isa.DICall {
					c.callStack = append(c.callStack, blk.FallPC)
					c.BP.RAS.Push(blk.FallPC)
					c.traceEnter(actual)
				}
				c.commit(resolve)
				npc, haveNext = actual, true

			case isa.DRet:
				c.Stats.Branches++
				if len(c.callStack) == baseDepth {
					// Returning from the entry frame ends the run. This
					// return has no matching push inside the run, so its
					// prediction comes from whatever the RAS holds — stale
					// entries from an earlier context included. That is the
					// Retbleed / Spectre RSB window of Figure 4.2: the
					// victim "returns from Function 1" and speculatively
					// lands wherever the attacker arranged.
					resolve := c.now + float64(c.Cfg.ExecDelay+c.H.L1Lat)
					if c.specUntil < resolve {
						c.specUntil = resolve
					}
					if predicted, okP := c.BP.RAS.Pop(); okP && predicted != 0 {
						c.Stats.Mispredicts++
						c.squashWindow(op.PC, predicted, resolve)
					}
					c.commit(resolve)
					res.Ret = c.Regs[isa.R1]
					stop = true
					break
				}
				actual := c.callStack[len(c.callStack)-1]
				c.callStack = c.callStack[:len(c.callStack)-1]
				// The architectural target comes from the in-memory stack;
				// give it an L1 load latency past the execute stage.
				resolve := c.now + float64(c.Cfg.ExecDelay+c.H.L1Lat)
				if c.specUntil < resolve {
					c.specUntil = resolve
				}
				predicted, okP := c.BP.RAS.Pop()
				if okP && predicted != actual {
					// Return target hijack window (Spectre RSB / Retbleed).
					c.Stats.Mispredicts++
					c.squashWindow(op.PC, predicted, resolve)
				} else if !okP {
					c.now = resolve
				}
				c.commit(resolve)
				npc, haveNext = actual, true

			case isa.DFence:
				// lfence: nothing younger may issue before all older work
				// resolves.
				c.now = max(c.now, c.specUntil, c.lastCommit)
				c.commit(c.now)

			case isa.DHalt:
				c.commit(c.now)
				res.Ret = c.Regs[isa.R1]
				stop = true
			}

			if alu {
				// Shared single-cycle ALU tail: writeback, readiness, taint
				// propagation through arithmetic, commit — with the R0 reads
				// folded away by the scoreboard invariant above.
				startT := c.now
				if r := c.readyAt[op.Rs1]; r > startT {
					startT = r
				}
				if r := c.readyAt[op.Rs2]; r > startT {
					startT = r
				}
				done := startT + 1
				if op.Rd != isa.R0 {
					c.Regs[op.Rd] = v
					c.readyAt[op.Rd] = done
					t := c.taintUntil[op.Rs1]
					if t2 := c.taintUntil[op.Rs2]; t2 > t {
						t = t2
					}
					c.taintUntil[op.Rd] = t
				}
				c.commit(done)
			}
			if c.stepHook != nil {
				c.stepHook(op.PC)
			}
			if stop {
				return
			}
		}

		if !haveNext {
			// Straight-line run ended at a text gap, an undecodable word, a
			// one-op block, or the budget: dispatch resumes at the next PC.
			pc = ops[len(ops)-1].PC + isa.InstBytes
			blk = nil
			continue
		}
		if nb != nil {
			c.Stats.BBChains++
		}
		pc, blk = npc, nb
	}
}
