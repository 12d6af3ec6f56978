package isa

import (
	"testing"
	"testing/quick"
)

func TestEvalALU(t *testing.T) {
	cases := []struct {
		name string
		k    ALUKind
		a, b uint64
		imm  int64
		want uint64
	}{
		{"mov", AMov, 7, 99, 0, 7},
		{"movimm", AMovImm, 7, 99, -3, 0xfffffffffffffffd},
		{"add", AAdd, 3, 4, 0, 7},
		{"addimm", AAddImm, 3, 0, 4, 7},
		{"addimm-neg", AAddImm, 3, 0, -4, 0xffffffffffffffff},
		{"sub", ASub, 10, 4, 0, 6},
		{"sub-wrap", ASub, 0, 1, 0, ^uint64(0)},
		{"and", AAnd, 0xff, 0x0f, 0, 0x0f},
		{"andimm", AAndImm, 0xff, 0, 0x3c, 0x3c},
		{"or", AOr, 0xf0, 0x0f, 0, 0xff},
		{"xor", AXor, 0xff, 0x0f, 0, 0xf0},
		{"shl", AShlImm, 1, 0, 12, 4096},
		{"shr", AShrImm, 4096, 0, 12, 1},
		{"shl-mask", AShlImm, 1, 0, 64, 1},
		{"mul", AMul, 6, 7, 0, 42},
	}
	for _, c := range cases {
		if got := EvalALU(c.k, c.a, c.b, c.imm); got != c.want {
			t.Errorf("%s: EvalALU = %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestEvalCond(t *testing.T) {
	neg := uint64(0xffffffffffffffff) // -1 signed
	cases := []struct {
		name string
		k    Cond
		a, b uint64
		want bool
	}{
		{"eq-true", CEQ, 5, 5, true},
		{"eq-false", CEQ, 5, 6, false},
		{"ne", CNE, 5, 6, true},
		{"lt-signed", CLT, neg, 0, true},
		{"lt-unsigned-diff", CULT, neg, 0, false},
		{"ge-signed", CGE, 0, neg, true},
		{"uge", CUGE, neg, 0, true},
		{"ult", CULT, 3, 9, true},
	}
	for _, c := range cases {
		if got := EvalCond(c.k, c.a, c.b); got != c.want {
			t.Errorf("%s: EvalCond = %v, want %v", c.name, got, c.want)
		}
	}
}

// Signed and unsigned comparisons must agree whenever both operands fit in
// int64's non-negative range.
func TestCondSignedUnsignedAgree(t *testing.T) {
	f := func(a, b uint32) bool {
		return EvalCond(CLT, uint64(a), uint64(b)) == EvalCond(CULT, uint64(a), uint64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// CLT and CGE are exact complements, as are CULT and CUGE.
func TestCondComplement(t *testing.T) {
	f := func(a, b uint64) bool {
		return EvalCond(CLT, a, b) != EvalCond(CGE, a, b) &&
			EvalCond(CULT, a, b) != EvalCond(CUGE, a, b) &&
			EvalCond(CEQ, a, b) != EvalCond(CNE, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsmLabels(t *testing.T) {
	a := NewAsm()
	a.MovImm(R1, 10)
	a.Label("loop")
	a.AddImm(R1, R1, -1)
	a.Branch(CNE, R1, R0, "loop")
	a.Ret()
	code, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 4 {
		t.Fatalf("len = %d, want 4", len(code))
	}
	br := code[2]
	if br.Op != OpBranch || br.Sym != LocalSym || br.Target != 1 {
		t.Errorf("branch not fixed up: %+v", br)
	}
}

func TestAsmBackwardAndForwardLabels(t *testing.T) {
	a := NewAsm()
	a.Branch(CEQ, R1, R0, "done") // forward reference
	a.Label("loop")
	a.AddImm(R1, R1, -1)
	a.Branch(CNE, R1, R0, "loop") // backward reference
	a.Label("done")
	a.Ret()
	code, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	if code[0].Target != 3 {
		t.Errorf("forward branch target = %d, want 3", code[0].Target)
	}
	if code[2].Target != 1 {
		t.Errorf("backward branch target = %d, want 1", code[2].Target)
	}
}

func TestAsmUndefinedLabel(t *testing.T) {
	a := NewAsm()
	a.Jmp("nowhere")
	if _, err := a.Build(); err == nil {
		t.Error("Build succeeded with undefined label")
	}
}

func TestAsmDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate label")
		}
	}()
	a := NewAsm()
	a.Label("x")
	a.Label("x")
}

func TestAsmCallKeepsSymbol(t *testing.T) {
	a := NewAsm()
	a.Call("memcpy")
	a.Ret()
	code := a.MustBuild()
	if code[0].Sym != "memcpy" {
		t.Errorf("call sym = %q, want memcpy", code[0].Sym)
	}
}

func TestIsTransmitter(t *testing.T) {
	load := Inst{Op: OpLoad, Size: 8}
	mul := Inst{Op: OpALU, AK: AMul}
	add := Inst{Op: OpALU, AK: AAdd}
	st := Inst{Op: OpStore, Size: 8}
	if !load.IsTransmitter() || !mul.IsTransmitter() {
		t.Error("load and mul must be transmitters")
	}
	if add.IsTransmitter() || st.IsTransmitter() {
		t.Error("add and store must not be transmitters")
	}
}

func TestIsControl(t *testing.T) {
	for _, op := range []Op{OpBranch, OpJmp, OpIJmp, OpCall, OpICall, OpRet} {
		i := Inst{Op: op}
		if !i.IsControl() {
			t.Errorf("op %d should be control", op)
		}
	}
	for _, op := range []Op{OpNop, OpALU, OpLoad, OpStore, OpFence, OpHalt} {
		i := Inst{Op: op}
		if i.IsControl() {
			t.Errorf("op %d should not be control", op)
		}
	}
}

func TestStringCoversAllOps(t *testing.T) {
	ops := []Inst{
		{Op: OpNop}, {Op: OpALU, AK: AAdd}, {Op: OpLoad, Size: 8},
		{Op: OpStore, Size: 1}, {Op: OpBranch, Sym: "x"}, {Op: OpJmp},
		{Op: OpIJmp}, {Op: OpCall, Sym: "f"}, {Op: OpICall}, {Op: OpRet},
		{Op: OpFence}, {Op: OpHalt},
	}
	for _, i := range ops {
		if i.String() == "" {
			t.Errorf("empty String for %+v", i)
		}
	}
}

// The core executes only decoded ops, so DecodeInst must lose nothing: every
// word inside the ISA decodes to a non-DBad op that re-encodes to itself,
// and every word outside it decodes to DBad.
func TestDecodeRoundTrip(t *testing.T) {
	for op := OpNop; op <= OpHalt+2; op++ {
		for ak := AMov; ak <= AMul+1; ak++ {
			for _, rs2 := range []Reg{R0, R7} {
				in := Inst{Op: op, AK: ak, CK: CULT, Rd: R3, Rs1: R5, Rs2: rs2,
					Size: 8, Imm: -24, Target: 0xffff_ffff_8100_0040}
				d := DecodeInst(&in, 0x1000)
				if op > OpHalt {
					if d.Kind != DBad {
						t.Errorf("op %d outside the ISA decoded to kind %d", op, d.Kind)
					}
					continue
				}
				if d.Kind == DBad || d.PC != 0x1000 {
					t.Fatalf("%v decoded to kind %d at pc %#x", in.String(), d.Kind, d.PC)
				}
				if got := d.Reencode(); got != in {
					t.Errorf("round trip of %+v gave %+v", in, got)
				}
			}
		}
	}
}

func TestBuildIsIdempotent(t *testing.T) {
	a := NewAsm()
	a.MovImm(R1, 1)
	a.Label("l")
	a.Branch(CEQ, R0, R0, "l")
	first, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Build not idempotent at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}
