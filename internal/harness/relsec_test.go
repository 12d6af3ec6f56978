package harness

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/obs"
	"repro/internal/schemes"
)

// relsecSharedH memoizes one harness for the relsec tests that only read
// from it (the image build dominates; RelSec itself is not memoized).
var (
	relsecSharedH    *Harness
	relsecSharedOnce sync.Once
)

func relsecHarness() *Harness {
	relsecSharedOnce.Do(func() { relsecSharedH = New(QuickOptions()) })
	return relsecSharedH
}

// relsecFastTargets returns a two-gadget slice (the CVE stand-in plus the
// first generated census gadget) for tests that don't need the full census.
func relsecFastTargets(t testing.TB, h *Harness) []*kimage.Func {
	t.Helper()
	all := relsecTargets(h.Img)
	if len(all) < 2 {
		t.Fatalf("census too small: %d driveable gadgets", len(all))
	}
	xusb := h.Img.MustFunc("xusb_ioctl_gadget")
	for _, f := range all {
		if f.ID != xusb.ID {
			return []*kimage.Func{xusb, f}
		}
	}
	t.Fatal("no generated gadget in census")
	return nil
}

// TestRelSecExperiment runs the full experiment once and checks the paper's
// claims executable form: the insecure baseline is distinguishable, every
// sound scheme is trace-equivalent over the whole census, the witness
// determines all eight secret bits, and the repair loop converges strictly
// cheaper than blanket FENCE.
func TestRelSecExperiment(t *testing.T) {
	rep, err := relsecHarness().RelSec()
	if err != nil {
		t.Fatalf("relsec: %v", err)
	}
	perScheme := map[schemes.Kind]*RelSecCell{}
	for i := range rep.Cells {
		c := rep.Cells[i]
		if c.Err != "" {
			t.Fatalf("cell %v/%d: %s", c.Scheme, c.Shard, c.Err)
		}
		agg := perScheme[c.Scheme]
		if agg == nil {
			agg = &RelSecCell{}
			perScheme[c.Scheme] = agg
		}
		agg.Gadgets += c.Gadgets
		agg.Diverged += c.Diverged
	}
	for _, kind := range RelSecSchemes {
		agg := perScheme[kind]
		if agg == nil || agg.Gadgets == 0 {
			t.Fatalf("%v: no gadgets judged", kind)
		}
		if kind == schemes.Unsafe {
			if agg.Diverged == 0 {
				t.Errorf("UNSAFE: no distinguishable gadget — oracle has no power")
			}
		} else if agg.Diverged != 0 {
			t.Errorf("%v: %d/%d gadgets distinguishable — sound scheme leaks into the trace",
				kind, agg.Diverged, agg.Gadgets)
		}
	}
	if rep.Witness == nil || rep.Witness.LeakedBits != 0xff {
		t.Errorf("witness must determine all 8 secret bits, got %+v", rep.Witness)
	}
	if rep.Repair == nil || !rep.Repair.Clean {
		t.Fatalf("repair loop did not converge: %+v", rep.Repair)
	}
	if rep.Repair.TotalSites >= rep.Repair.BlanketSites {
		t.Errorf("repair cost %d not strictly below blanket %d",
			rep.Repair.TotalSites, rep.Repair.BlanketSites)
	}
	if rep.Repair.FinalEqual != rep.Repair.FinalRecheck {
		t.Errorf("final pass: %d/%d rechecked gadgets still distinguishable",
			rep.Repair.FinalRecheck-rep.Repair.FinalEqual, rep.Repair.FinalRecheck)
	}
}

// TestRelSecPremiseSequential checks relative security's premise
// (SpecRelative.v's seq_obs_secure) on every quick-scale pair: on a core
// that runs no wrong path, both members of each of RelSec's UNSAFE secret
// pairs (same shards, same secrets) must already be trace-equal, so the
// divergence UNSAFE shows under speculation is the speculation's doing.
func TestRelSecPremiseSequential(t *testing.T) {
	h := relsecHarness()
	sequential := func() (*kernel.Kernel, error) {
		k, err := h.schemeBoot(schemes.Unsafe)()
		if err == nil {
			k.Core.Cfg.MaxTransient = 0
		}
		return k, err
	}
	cells, errs := h.relsecGrid("relsec", []string{schemes.Unsafe.String()},
		func(int) relsecBoot { return sequential })
	pairs := 0
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if c.Events == 0 {
			t.Errorf("shard %d: member A recorded no events, so the premise holds vacuously", i)
		}
		if c.Diverged != 0 {
			t.Errorf("shard %d: %d/%d pairs differ with no speculation (first: %s)",
				i, c.Diverged, c.Gadgets, c.FirstDiv)
		}
		pairs += c.Gadgets
	}
	if want := len(relsecTargets(h.Img)); pairs != want {
		t.Errorf("judged %d pairs, census has %d", pairs, want)
	}
}

// TestRelSecDeterminismAcrossJobs pins the experiment's replay guarantee:
// the rendered report is byte-identical at any worker-pool size.
func TestRelSecDeterminismAcrossJobs(t *testing.T) {
	render := func(jobs int) []byte {
		opt := QuickOptions()
		opt.Jobs = jobs
		rep, err := New(opt).RelSec()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		PrintRelSec(&buf, rep)
		return buf.Bytes()
	}
	want := render(1)
	for _, jobs := range []int{4, 8} {
		if got := render(jobs); !bytes.Equal(got, want) {
			t.Errorf("-jobs %d changed the relsec report", jobs)
		}
	}
}

// TestRelSecCloneVsFreshBoot pins the snapshot engine out of the oracle:
// members run on snapshot clones must produce the same traces as members
// run on genuinely fresh boots.
func TestRelSecCloneVsFreshBoot(t *testing.T) {
	targets := relsecFastTargets(t, relsecHarness())
	run := func(fresh bool, kind schemes.Kind, secret byte) []obs.Mark {
		h := New(QuickOptions())
		h.forceFresh = fresh
		// Resolve targets against this harness's image (same spec, same IDs).
		own := make([]*kimage.Func, len(targets))
		for i, f := range targets {
			own[i] = h.Img.FuncByID(f.ID)
		}
		r, err := relsecMember(h.schemeBoot(kind), secret, own, relsecCellCap)
		if err != nil {
			t.Fatalf("fresh=%v: %v", fresh, err)
		}
		return r.marks
	}
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Perspective} {
		cloned := run(false, kind, 0x5a)
		booted := run(true, kind, 0x5a)
		if len(cloned) != len(booted) {
			t.Fatalf("%v: mark counts differ", kind)
		}
		for i := range cloned {
			if cloned[i] != booted[i] {
				t.Errorf("%v gadget %d: clone trace %v != fresh-boot trace %v",
					kind, i, cloned[i], booted[i])
			}
		}
	}
}

// FuzzRelSecSecretPairing feeds random secrets through a sound scheme: the
// planted secret must never influence the observation trace, whatever its
// value.
func FuzzRelSecSecretPairing(f *testing.F) {
	for _, s := range []byte{0x00, 0x01, 0x80, 0xff, 0x5a} {
		f.Add(s)
	}
	h := relsecHarness()
	targets := relsecFastTargets(f, h)
	baseline, err := relsecMember(h.schemeBoot(schemes.Fence), 0x00, targets, relsecCellCap)
	if err != nil {
		f.Fatalf("baseline member: %v", err)
	}
	f.Fuzz(func(t *testing.T, secret byte) {
		r, err := relsecMember(h.schemeBoot(schemes.Fence), secret, targets, relsecCellCap)
		if err != nil {
			t.Fatalf("member(%#02x): %v", secret, err)
		}
		for i := range baseline.marks {
			if r.marks[i] != baseline.marks[i] {
				t.Errorf("secret %#02x changed FENCE's trace on gadget %d: %v != %v",
					secret, i, r.marks[i], baseline.marks[i])
			}
		}
	})
}

// TestRelSecWitnessGolden pins the distinguishing trace for the known v1
// gadget: the exact divergent observation (index, PC, probe-line addresses)
// is part of the repo's executable security argument, so drift means either
// the gadget, the channel model, or the recorder changed.
func TestRelSecWitnessGolden(t *testing.T) {
	h := relsecHarness()
	wit, err := h.relsecWitness(CellSeed(h.Opt.Seed, "relsec", "witness"))
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	if got, wantA, wantB := wit.DecodedA(), wit.SecretA, wit.SecretB; got != wantA || wit.DecodedB() != wantB {
		t.Errorf("witness decode: A %#02x (want %#02x), B %#02x (want %#02x)",
			got, wantA, wit.DecodedB(), wantB)
	}
	var buf bytes.Buffer
	PrintRelSecWitness(&buf, wit)
	checkGolden(t, "relsec_witness", buf.Bytes())
}

// TestRelSecRenderGolden pins the full renderer's formatting on a hand-built
// fixture (live numbers are covered by the witness golden and the
// determinism test).
func TestRelSecRenderGolden(t *testing.T) {
	rep := &RelSecReport{
		Cells: []RelSecCell{
			{Scheme: schemes.Unsafe, Shard: 0, Gadgets: 3, Diverged: 3,
				Events: 120, FirstDiv: "xusb_ioctl_gadget"},
			{Scheme: schemes.Unsafe, Shard: 1, Gadgets: 2, Diverged: 2,
				Events: 90, FirstDiv: "svc_read_w1"},
			{Scheme: schemes.Fence, Shard: 0, Gadgets: 3, Events: 80},
			{Scheme: schemes.Fence, Shard: 1, Gadgets: 2, Events: 60},
			{Scheme: schemes.DOM, Shard: 0, Gadgets: 3, Events: 80},
			{Scheme: schemes.DOM, Shard: 1, Gadgets: 2, Err: "relsec/DOM/shard=1: boom"},
		},
		Witness: &RelSecWitness{
			Gadget: "xusb_ioctl_gadget", SecretA: 0xc1, SecretB: 0x3e,
			LenA: 10, LenB: 10, Index: 4,
			EventA:    obs.Event{Kind: obs.KindSpecLoad, PC: 0x1000, Addr: 0x7f00000c1000},
			EventB:    obs.Event{Kind: obs.KindSpecLoad, PC: 0x1000, Addr: 0x7f000003e000},
			ProbeBase: 0x7f0000000000, LeakedBits: 0xff,
		},
		Repair: &RelSecRepair{
			Steps: []RelSecRepairStep{
				{Iter: 1, Func: "svc_read_w1", Kind: kimage.GadgetCache, Sites: 9,
					Checked: true, TraceEqual: true},
				{Iter: 2, Func: "drv_7", Kind: kimage.GadgetMDS, Sites: 11,
					Checked: true, TraceEqual: false},
				{Iter: 3, Func: "helper_2", Kind: kimage.GadgetPort, Sites: 6},
			},
			Clean: true, FinalRecheck: 1, FinalEqual: 1,
			TotalSites: 26, BlanketSites: 1300,
			UnsafeCycles: 1000, SelectiveCycles: 1010, BlanketCycles: 1450,
		},
	}
	var buf bytes.Buffer
	PrintRelSec(&buf, rep)
	checkGolden(t, "relsec", buf.Bytes())
}
