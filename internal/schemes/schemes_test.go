package schemes

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsv"
	"repro/internal/isv"
	"repro/internal/memsim"
	"repro/internal/sec"
)

const (
	ktext = 0xffff_ffff_8100_0000
	kdata = memsim.DirectMapBase
)

func TestFencePolicy(t *testing.T) {
	p := &FencePolicy{}
	if p.OnTransmit(&cpu.Access{IsLoad: true}) != cpu.Block {
		t.Error("FENCE allowed a speculative load")
	}
	if p.OnTransmit(&cpu.Access{IsLoad: false}) != cpu.Allow {
		t.Error("FENCE blocked a non-load")
	}
}

func TestDOMPolicy(t *testing.T) {
	p := &DOMPolicy{}
	if p.OnTransmit(&cpu.Access{IsLoad: true, L1Hit: false}) != cpu.Block {
		t.Error("DOM allowed a speculative L1 miss")
	}
	if p.OnTransmit(&cpu.Access{IsLoad: true, L1Hit: true}) != cpu.Allow {
		t.Error("DOM blocked a speculative L1 hit")
	}
}

func TestSTTPolicy(t *testing.T) {
	p := &STTPolicy{}
	if p.OnTransmit(&cpu.Access{IsLoad: true, AddrTainted: true}) != cpu.BlockUntaint {
		t.Error("STT allowed a tainted transmitter")
	}
	if p.OnTransmit(&cpu.Access{IsLoad: true, AddrTainted: false}) != cpu.Allow {
		t.Error("STT blocked an untainted load")
	}
	// Port-channel transmitter with tainted operand.
	if p.OnTransmit(&cpu.Access{IsLoad: false, AddrTainted: true}) != cpu.BlockUntaint {
		t.Error("STT allowed a tainted multiply")
	}
}

func TestSpotPolicy(t *testing.T) {
	p := &SpotPolicy{KPTI: true}
	if p.OnTransmit(&cpu.Access{IsLoad: true, AddrTainted: true}) != cpu.Allow {
		t.Error("spot mitigations should not block loads (their weakness)")
	}
	if p.IndirectPenalty() == 0 {
		t.Error("retpoline penalty missing")
	}
	if p.KernelCrossPenalty() == 0 {
		t.Error("KPTI penalty missing")
	}
	q := &SpotPolicy{}
	if q.KernelCrossPenalty() != 0 {
		t.Error("no-KPTI variant charges crossings")
	}
}

func perspectiveSetup() (*PerspectivePolicy, sec.Ctx) {
	d := dsv.NewDir()
	i := isv.NewDir()
	ctx := sec.Ctx(3)
	d.Assign(ctx, kdata, 4096)
	v := isv.NewView()
	v.AddFunc(ktext, 16)
	i.Install(ctx, v)
	return NewPerspective(d, i, Perspective), ctx
}

// warm pre-touches the view caches so tests exercise steady-state verdicts.
func warm(p *PerspectivePolicy, ctx sec.Ctx, pc, va uint64) {
	p.DSV.Check(ctx, va)
	p.ISV.Check(ctx, pc)
}

func TestPerspectiveAllowsInViewAccess(t *testing.T) {
	p, ctx := perspectiveSetup()
	a := &cpu.Access{PC: ktext, VA: kdata, IsLoad: true, Ctx: ctx, Kernel: true}
	warm(p, ctx, ktext, kdata)
	if p.OnTransmit(a) != cpu.Allow {
		t.Error("in-view access blocked")
	}
}

func TestPerspectiveBlocksForeignData(t *testing.T) {
	p, ctx := perspectiveSetup()
	other := kdata + 64*4096
	p.DSV.Assign(sec.Ctx(9), other, 4096) // victim's data
	warm(p, ctx, ktext, other)
	a := &cpu.Access{PC: ktext, VA: other, IsLoad: true, Ctx: ctx, Kernel: true}
	if p.OnTransmit(a) != cpu.Block {
		t.Error("cross-context data access allowed (active attack!)")
	}
	if p.Stats.DSVFences == 0 {
		t.Error("DSV fence not counted")
	}
}

func TestPerspectiveBlocksOutOfViewCode(t *testing.T) {
	p, ctx := perspectiveSetup()
	gadgetPC := uint64(ktext + 0x8000)
	warm(p, ctx, gadgetPC, kdata)
	a := &cpu.Access{PC: gadgetPC, VA: kdata, IsLoad: true, Ctx: ctx, Kernel: true}
	if p.OnTransmit(a) != cpu.Block {
		t.Error("out-of-ISV transmitter allowed (passive attack!)")
	}
	if p.Stats.ISVFences == 0 {
		t.Error("ISV fence not counted")
	}
}

func TestPerspectiveConservativeOnCacheMiss(t *testing.T) {
	p, ctx := perspectiveSetup()
	// Cold caches: first check must block even though the access is in
	// view (§6.2: block on miss, refill, proceed next time).
	a := &cpu.Access{PC: ktext, VA: kdata, IsLoad: true, Ctx: ctx, Kernel: true}
	if p.OnTransmit(a) != cpu.Block {
		t.Error("cold-cache access not conservatively blocked")
	}
	if p.Stats.DSVMisses == 0 {
		t.Error("DSV miss not counted")
	}
	if p.OnTransmit(a) != cpu.Allow {
		t.Error("warm access blocked")
	}
}

func TestPerspectiveIgnoresUserMode(t *testing.T) {
	p, _ := perspectiveSetup()
	a := &cpu.Access{PC: 0x400000, VA: 0x500000, IsLoad: true, Ctx: 3, Kernel: false}
	if p.OnTransmit(a) != cpu.Allow {
		t.Error("user-mode speculation blocked")
	}
}

func TestPerspectiveMulChecksISVOnly(t *testing.T) {
	p, ctx := perspectiveSetup()
	warm(p, ctx, ktext, kdata)
	// A multiply outside the ISV is blocked; inside, allowed.
	in := &cpu.Access{PC: ktext + 4, IsLoad: false, Ctx: ctx, Kernel: true}
	p.OnTransmit(in) // may miss first
	if p.OnTransmit(in) != cpu.Allow {
		t.Error("in-view multiply blocked")
	}
	outPC := uint64(ktext + 0x9000)
	out := &cpu.Access{PC: outPC, IsLoad: false, Ctx: ctx, Kernel: true}
	p.OnTransmit(out)
	if p.OnTransmit(out) != cpu.Block {
		t.Error("out-of-view multiply allowed")
	}
}

func TestUnknownBlockingAblation(t *testing.T) {
	p, ctx := perspectiveSetup()
	unknown := kdata + 1024*4096 // in no DSV
	warm(p, ctx, ktext, unknown)
	a := &cpu.Access{PC: ktext, VA: unknown, IsLoad: true, Ctx: ctx, Kernel: true}
	if p.OnTransmit(a) != cpu.Block {
		t.Error("unknown allocation allowed with default policy")
	}
	p.BlockUnknown = false
	if p.OnTransmit(a) != cpu.Allow {
		t.Error("unknown allocation blocked under ablation")
	}
	// Cross-context data is still blocked under the ablation.
	foreign := kdata + 2048*4096
	p.DSV.Assign(sec.Ctx(9), foreign, 4096)
	warm(p, ctx, ktext, foreign)
	b := &cpu.Access{PC: ktext, VA: foreign, IsLoad: true, Ctx: ctx, Kernel: true}
	if p.OnTransmit(b) != cpu.Block {
		t.Error("ablation disabled cross-context protection")
	}
}

func TestFactoryAndNames(t *testing.T) {
	d, i := dsv.NewDir(), isv.NewDir()
	for _, k := range AllKinds {
		p := New(k, d, i)
		if p.Name() == "?" || p.Name() == "" {
			t.Errorf("kind %d has bad name %q", k, p.Name())
		}
		if k.IsPerspective() {
			if _, ok := p.(*PerspectivePolicy); !ok {
				t.Errorf("%v is not a PerspectivePolicy", k)
			}
		}
	}
	if !Perspective.IsPerspective() || Fence.IsPerspective() {
		t.Error("IsPerspective wrong")
	}
}
