// Decoded instruction form: the representation internal/cpu executes, on
// the committed and the wrong path alike (internal/bbcache builds streams
// of these; the core decodes single words on block misses). For kernel
// text, decoding happens once per image, not once per simulated fetch, so
// the hot loop does no bit-fiddling: the ALU sub-kind is folded into the
// dispatch opcode, immediates are pre-coerced, and instruction-cache line
// crossings are resolved at decode time.
//
// The decoded form is a pure re-encoding of Inst (Reencode inverts it):
// DecodeInst is where an Inst's meaning to the core is decided.

package isa

import "fmt"

// DKind is the dispatch opcode of one pre-decoded instruction. It merges
// the major opcode with the ALU sub-kind so the threaded dispatch loop
// switches exactly once per instruction, with the hot ALU forms getting
// dedicated cases instead of a second dispatch through EvalALU.
type DKind uint8

const (
	// DBad marks an undecodable word (an Op outside the ISA). It is never
	// executed: the block builder terminates decoding at it and never emits
	// it into a block, and the core treats it as a fetch fault at its PC.
	DBad DKind = iota
	// DNop does nothing.
	DNop
	// DMov through DShrImm are the dedicated ALU dispatch cases.
	DMov
	DMovImm
	DAdd
	DAddImm
	DSub
	DAnd
	DAndImm
	DOr
	DXor
	DShlImm
	DShrImm
	// DMul is the Port-channel transmitter: the only ALU form the active
	// Policy is consulted about, so it gets its own case.
	DMul
	// DALUGen covers ALU sub-kinds with no dedicated case (including
	// unknown ones, which EvalALU defines as producing zero).
	DALUGen
	// DLoad and DStore are the memory forms.
	DLoad
	DStore
	// DBranch through DRet are the control forms; they terminate a
	// decoded block.
	DBranch
	DJmp
	DCall
	DICall
	DIJmp
	DRet
	// DFence is the lfence; it does not redirect fetch, so it does not
	// terminate a block.
	DFence
	// DHalt ends the run (sysret).
	DHalt
)

// IsControl reports whether the kind redirects fetch (terminates a decoded
// basic block).
func (k DKind) IsControl() bool {
	switch k {
	case DBranch, DJmp, DCall, DICall, DIJmp, DRet, DHalt:
		return true
	}
	return false
}

// DOp is one pre-decoded instruction: a dense, pointer-free struct the
// dispatch loop walks sequentially. Field layout keeps it at 32 bytes so a
// 64-byte host cache line holds two ops.
type DOp struct {
	PC     uint64 // instruction virtual address
	Imm    int64  // immediate, as linked
	Target uint64 // linked VA for Branch/Jmp/Call

	Kind DKind
	AK   ALUKind // original ALU sub-kind (DALUGen dispatch + display)
	CK   Cond    // branch condition
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Size uint8 // load/store width in bytes
	// LineCross marks an instruction whose fetch crosses into a new
	// 64-byte I-cache line relative to the *previous instruction in the
	// stream*. The first instruction of a block is always checked
	// dynamically (its predecessor is whatever ran before the block), so
	// its flag is irrelevant there; suffix blocks sharing a decoded run
	// keep the same predecessor relation and the same flags.
	LineCross bool
}

// DecodeInst pre-decodes one linked instruction at pc. It never fails:
// words outside the ISA decode to DBad, which the block builder treats as
// undecodable text. The named result is filled in place: returning a local
// instead costs a copy whose wide loads stall on the narrow field stores,
// and the core's single-op dispatch decodes every instruction it runs.
func DecodeInst(in *Inst, pc uint64) (d DOp) {
	d = DOp{
		PC:     pc,
		Imm:    in.Imm,
		Target: in.Target,
		AK:     in.AK,
		CK:     in.CK,
		Rd:     in.Rd,
		Rs1:    in.Rs1,
		Rs2:    in.Rs2,
		Size:   in.Size,
	}
	switch in.Op {
	case OpNop:
		d.Kind = DNop
	case OpALU:
		switch in.AK {
		case AMov:
			d.Kind = DMov
		case AMovImm:
			d.Kind = DMovImm
		case AAdd:
			d.Kind = DAdd
		case AAddImm:
			d.Kind = DAddImm
		case ASub:
			d.Kind = DSub
		case AAnd:
			d.Kind = DAnd
		case AAndImm:
			d.Kind = DAndImm
		case AOr:
			d.Kind = DOr
		case AXor:
			d.Kind = DXor
		case AShlImm:
			d.Kind = DShlImm
		case AShrImm:
			d.Kind = DShrImm
		case AMul:
			d.Kind = DMul
		default:
			d.Kind = DALUGen
		}
	case OpLoad:
		d.Kind = DLoad
	case OpStore:
		d.Kind = DStore
	case OpBranch:
		d.Kind = DBranch
	case OpJmp:
		d.Kind = DJmp
	case OpIJmp:
		d.Kind = DIJmp
	case OpCall:
		d.Kind = DCall
	case OpICall:
		d.Kind = DICall
	case OpRet:
		d.Kind = DRet
	case OpFence:
		d.Kind = DFence
	case OpHalt:
		d.Kind = DHalt
	default:
		d.Kind = DBad
	}
	return d
}

// Reencode reconstructs the Inst form (lockstep divergence reports render
// both forms; tests cross-check decode against it).
func (d *DOp) Reencode() Inst {
	in := Inst{
		AK:     d.AK,
		CK:     d.CK,
		Rd:     d.Rd,
		Rs1:    d.Rs1,
		Rs2:    d.Rs2,
		Size:   d.Size,
		Imm:    d.Imm,
		Target: d.Target,
	}
	switch d.Kind {
	case DNop:
		in.Op = OpNop
	case DMov, DMovImm, DAdd, DAddImm, DSub, DAnd, DAndImm, DOr, DXor,
		DShlImm, DShrImm, DMul, DALUGen:
		in.Op = OpALU
	case DLoad:
		in.Op = OpLoad
	case DStore:
		in.Op = OpStore
	case DBranch:
		in.Op = OpBranch
	case DJmp:
		in.Op = OpJmp
	case DIJmp:
		in.Op = OpIJmp
	case DCall:
		in.Op = OpCall
	case DICall:
		in.Op = OpICall
	case DRet:
		in.Op = OpRet
	case DFence:
		in.Op = OpFence
	case DHalt:
		in.Op = OpHalt
	default:
		in.Op = Op(255) // DBad: an op outside the ISA
	}
	return in
}

func (d *DOp) String() string {
	if d.Kind == DBad {
		return fmt.Sprintf("bad @%#x", d.PC)
	}
	in := d.Reencode()
	return in.String()
}
