package cpu

import (
	"testing"

	"repro/internal/bbcache"
	"repro/internal/isa"
)

// FuzzBlockDecode feeds arbitrary bytes through the instruction synthesizer
// below and runs the resulting program on a block-dispatch/single-op world
// pair under the lockstep oracle. The input space deliberately covers what
// the block builder must survive: undecodable opcode values, text gaps,
// jumps into the middle of decoded runs, self-loops, indirect branches
// through garbage registers, and faulting memory operands. Whatever the
// program does, both dispatch modes must do it identically.

// fuzzProgram decodes 8 bytes per instruction into a bounded synthetic
// program with a validity mask. Opcode and ALU-kind selectors intentionally
// range past the defined enums (undecodable words); a small fraction of
// slots are gaps.
func fuzzProgram(data []byte) ([]isa.Inst, []bool) {
	const instSz = 8
	n := len(data) / instSz
	if n > 48 {
		n = 48
	}
	if n == 0 {
		return nil, nil
	}
	insts := make([]isa.Inst, n)
	valid := make([]bool, n)
	for i := 0; i < n; i++ {
		b := data[i*instSz : (i+1)*instSz]
		valid[i] = b[7]%16 != 0 // ~6% gaps
		in := &insts[i]
		in.Op = isa.Op(b[0] % 14)      // 12 defined ops + 2 undecodable values
		in.AK = isa.ALUKind(b[1] % 13) // 12 defined kinds + 1 undefined
		in.CK = isa.Cond(b[1] % 6)
		in.Rd = isa.Reg(b[2] % isa.NumRegs)
		in.Rs1 = isa.Reg(b[3] % isa.NumRegs)
		in.Rs2 = isa.Reg(b[4] % isa.NumRegs)
		in.Size = 1 << (b[5] % 4)
		in.Imm = int64(int8(b[6])) * 8
		in.Target = entry + uint64(b[5]%uint8(n))*isa.InstBytes
	}
	return insts, valid
}

// fuzzWorld builds one world around the synthesized program, with a few
// registers seeded to point into mapped memory (so loads/stores sometimes
// hit, sometimes chase pointers, sometimes fault) and the rest to small
// integers. Only the valid slots are placed in the world's code source, so
// single-op dispatch fetches exactly the words block dispatch decodes. Both
// members of a pair run this identically.
func fuzzWorld(insts []isa.Inst, valid []bool, threaded bool) *world {
	w := newWorld()
	for r := 2; r < 10; r++ {
		pa := uint64(r) * 4096
		w.phys.Write64(pa, dm(uint64(r+1)*4096))
		w.core.Regs[r] = dm(pa)
	}
	for r := 10; r < 18; r++ {
		w.core.Regs[r] = uint64(r*17 + 3)
	}
	for i, ok := range valid {
		if ok {
			w.code.place(entry+uint64(i)*isa.InstBytes, insts[i:i+1])
		}
	}
	if threaded {
		w.core.SetProgram(bbcache.Build(entry, insts, valid, nil))
	}
	return w
}

func FuzzBlockDecode(f *testing.F) {
	// Seed shapes: straight-line ALU into halt, a branch loop, a call/ret
	// pair, memory traffic, an undecodable word mid-stream, and a gap.
	f.Add([]byte{
		1, 1, 2, 0, 0, 0, 3, 1, // movimm r2, 24
		1, 3, 2, 2, 0, 0, 1, 1, // addimm r2, r2, 8
		11, 0, 0, 0, 0, 0, 0, 1, // halt
	})
	f.Add([]byte{
		1, 1, 3, 0, 0, 0, 2, 1, // movimm r3, 16
		1, 4, 3, 3, 0, 0, 1, 1, // sub-ish alu
		4, 1, 0, 3, 0, 1, 0, 1, // branch r3 to slot 1
		11, 0, 0, 0, 0, 0, 0, 1, // halt
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, 3, 0, 1, // call slot 3
		11, 0, 0, 0, 0, 0, 0, 1, // halt
		0, 0, 0, 0, 0, 0, 0, 1, // nop
		9, 0, 0, 0, 0, 0, 0, 1, // ret
	})
	f.Add([]byte{
		2, 0, 4, 2, 0, 3, 0, 1, // load r4, [r2]
		3, 0, 0, 2, 4, 3, 1, 1, // store [r2+8], r4
		13, 0, 0, 0, 0, 0, 0, 1, // undecodable word
		11, 0, 0, 0, 0, 0, 0, 1, // halt
	})
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 1, // nop
		0, 0, 0, 0, 0, 0, 0, 0, // gap
		11, 0, 0, 0, 0, 0, 0, 1, // halt
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, valid := fuzzProgram(data)
		if insts == nil {
			t.Skip("input too short for one instruction")
		}
		fast := fuzzWorld(insts, valid, true)
		ref := fuzzWorld(insts, valid, false)
		rep := LockstepRun(fast.core, ref.core, entry, 400)
		if !rep.OK() {
			t.Fatal(rep.String())
		}
	})
}
