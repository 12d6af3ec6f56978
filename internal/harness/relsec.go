package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/attack"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/lebench"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/scanner"
	"repro/internal/schemes"
)

// This file implements the executable relative-security experiment (`-exp
// relsec`): the two-trace equivalence oracle over the gadget census, the
// distinguishing-trace witness for the insecure baseline, and the
// CureSpec-style find→harden→re-verify repair loop. The oracle is the
// SpecRelative.v notion of relative security made runnable: for every gadget
// we build a *secret pair* — two machines identical except for one planted
// secret byte — drive both through the identical call sequence, and compare
// their observation traces. A sound scheme must make the traces equal; the
// unprotected baseline must not, and its first divergent observation names
// the leak.

// RelSecSchemes are the defenses judged by the equivalence oracle.
var RelSecSchemes = []schemes.Kind{
	schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT, schemes.Perspective,
}

// relsecShards splits the driveable census across parallel cells.
const relsecShards = 4

// relsecGenLimit is the in-bounds capacity the harness gives the generated
// gadgets' shared bounds global (boot leaves it 0, which would make the
// bounds check untrainable — always taken).
const relsecGenLimit = 16

// relsecCellCap bounds per-cell event retention. Shard cells compare digests
// and counts, which cover the full trace regardless of retention, so the
// buffer stays small; the witness run uses relsecWitnessCap to keep the
// whole divergent segment for pretty-printing.
const (
	relsecCellCap    = 64
	relsecWitnessCap = 1 << 15
)

// RelSecCell is one (scheme, census shard) differential cell: every gadget
// in the shard driven on a secret-paired pair of machines.
type RelSecCell struct {
	Scheme   schemes.Kind
	Shard    int
	Gadgets  int    // driveable gadgets in the shard
	Diverged int    // gadgets whose paired traces differ
	Events   uint64 // observations recorded across member A's segments
	FirstDiv string // first diverging gadget, "" when traces all agree
	Err      string
}

// RelSecWitness is the minimized distinguishing trace exhibited for the
// insecure baseline: the secret pair, the first divergent observation of
// each member, and the per-bit leak analysis from single-bit secret pairs.
type RelSecWitness struct {
	Gadget           string
	SecretA, SecretB byte
	LenA, LenB       uint64
	Index            int       // position of the first divergent observation
	EventA, EventB   obs.Event // the observations at Index
	ProbeBase        uint64    // member A's flush+reload probe base
	// LeakedBits has bit b set when flipping only secret bit b changed the
	// trace — the executable form of "which secret bits the observation
	// trace determines".
	LeakedBits byte
}

// DecodedA / DecodedB recover the secret byte each member's divergent
// observation encodes, assuming the v1 cache channel (probe-line index).
func (w RelSecWitness) DecodedA() byte { return byte((w.EventA.Addr - w.ProbeBase) >> 12) }
func (w RelSecWitness) DecodedB() byte { return byte((w.EventB.Addr - w.ProbeBase) >> 12) }

// RelSecRepairStep is one iteration of the repair loop.
type RelSecRepairStep struct {
	Iter  int
	Func  string
	Kind  kimage.GadgetKind
	Sites int // fenced load sites this step adds
	// Checked is true when the function is driveable and the step re-ran
	// the differential oracle under the accumulated selective fences;
	// TraceEqual is that re-check's verdict.
	Checked    bool
	TraceEqual bool
}

// RelSecRepair summarises the CureSpec-style loop: find a gadget, harden
// exactly that function, re-scan and re-verify, until the census is clean.
type RelSecRepair struct {
	Steps []RelSecRepairStep
	Clean bool // scanner reports no findings in the unhardened scope
	// A step can stay distinguishable right after its own repair: the
	// attacker-controlled index is still live in a register when the
	// hardened function calls into a not-yet-repaired callee with its own
	// gadget. The final pass re-checks those steps under the converged
	// range set; FinalEqual of FinalRecheck must come back trace-equal.
	FinalRecheck int
	FinalEqual   int
	TotalSites   int // fenced loads across all repaired functions
	BlanketSites int // fenced loads a kernel-wide FENCE would cover
	// Cycle cost of a LEBench slice under each policy (CyclesPerIter sums),
	// normalised in the report against the unprotected run.
	UnsafeCycles    float64
	SelectiveCycles float64
	BlanketCycles   float64
}

// RelSecReport bundles the experiment's three parts.
type RelSecReport struct {
	Cells   []RelSecCell
	Witness *RelSecWitness
	Repair  *RelSecRepair
}

// relsecTableOff classifies a function as a driveable v1 gadget by the
// bounds global its code loads: the generated census gadgets check
// OffGenLimit, the CVE stand-ins check OffXUSBLimit. Functions without a
// trainable bounds check (e.g. type_confuse_gadget, which is reached by
// predictor hijack, not by bounds mistraining) return 0.
func relsecTableOff(f *kimage.Func) int64 {
	for _, in := range f.Code {
		if in.Op == isa.OpLoad {
			switch in.Imm {
			case kimage.OffGenLimit:
				return kimage.OffGenLimit
			case kimage.OffXUSBLimit:
				return kimage.OffXUSBLimit
			}
		}
	}
	return 0
}

// relsecTargets lists the driveable gadget census in deterministic (ID)
// order.
func relsecTargets(img *kimage.Image) []*kimage.Func {
	var out []*kimage.Func
	for _, f := range img.Gadgets() {
		if relsecTableOff(f) != 0 {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// relsecRun is one member's outcome: per-gadget trace marks plus the
// recorder (whose retained events cover the *last* gadget's segment — the
// witness drives exactly one gadget so that segment is the whole trace).
type relsecRun struct {
	marks  []obs.Mark
	rec    *obs.Recorder
	frBase uint64
}

// relsecBoot builds one fresh member machine of a secret pair. The boot is
// all that differs between the oracle's callers: a registered scheme
// (schemeBoot), a selective-fence set (fenceBoot), or a test's variant.
type relsecBoot func() (*kernel.Kernel, error)

// schemeBoot boots members under a registered scheme; Perspective variants
// get the permissive whole-kernel view, so their verdict rests on the DSV.
func (h *Harness) schemeBoot(kind schemes.Kind) relsecBoot {
	return func() (*kernel.Kernel, error) {
		viewAll, _ := h.pocViews()
		return h.newMachine(kind, viewAll)
	}
}

// fenceBoot boots members under SelectiveFencePolicy over ranges, a policy
// the scheme registry doesn't know about.
func (h *Harness) fenceBoot(ranges []schemes.VARange) relsecBoot {
	return func() (*kernel.Kernel, error) {
		k, err := h.BootMachine(kernel.DefaultConfig())
		if err != nil {
			return nil, err
		}
		k.Core.Policy = &schemes.SelectiveFencePolicy{Ranges: ranges}
		return k, nil
	}
}

// relsecMember boots one member of a secret pair, plants the member's
// secret byte, and drives every target gadget through the
// mistrain→flush→out-of-bounds sequence, recording the observation trace as
// one segment per gadget. Everything except the secret byte is identical
// across members: same boot snapshot, same call sequence, same addresses
// (the allocators are deterministic), so any trace difference is caused by
// the secret.
func relsecMember(boot relsecBoot, secret byte, targets []*kimage.Func, capacity int) (relsecRun, error) {
	k, err := boot()
	if err != nil {
		return relsecRun{}, err
	}
	defer k.Release()
	return relsecDrive(k, secret, targets, capacity)
}

// relsecDrive performs the member's call sequence on an already-configured
// machine.
func relsecDrive(k *kernel.Kernel, secret byte, targets []*kimage.Func, capacity int) (relsecRun, error) {
	var run relsecRun
	victim, err := k.CreateProcess("victim")
	if err != nil {
		return run, err
	}
	attacker, err := k.CreateProcess("attacker")
	if err != nil {
		return run, err
	}
	secretVA, err := attack.PlantSecret(k, victim, []byte{secret})
	if err != nil {
		return run, err
	}
	k.SetGenLimit(relsecGenLimit)
	fr, err := attack.NewFlushReload(k, attacker)
	if err != nil {
		return run, err
	}
	run.frBase = fr.Base

	// Recording starts here: setup above is identical across members except
	// for the secret byte's store, which is not part of the judged window.
	rec := obs.NewRecorder(capacity)
	k.AttachObs(rec)
	defer k.AttachObs(nil)

	for _, f := range targets {
		table := k.GenTableVA()
		if relsecTableOff(f) == kimage.OffXUSBLimit {
			table = k.XUSBTableVA()
		}
		rec.Reset()
		// Mistrain the bounds check toward in-bounds.
		for j := 0; j < 6; j++ {
			k.RunVictimCall(attacker, f.Name, 0, uint64(j%8), fr.Base)
		}
		// Channel hygiene: evict the probe lines and the secret's own line,
		// so a fill (or its absence) in this segment is attributable to this
		// gadget's transient window, not to residue of the previous one.
		fr.Flush()
		if pa, ok := memsim.DirectMapPA(secretVA, k.Phys.Bytes()); ok {
			k.Core.H.FlushData(pa)
		}
		// Out-of-bounds call: index wraps to the secret's direct-map VA.
		k.RunVictimCall(attacker, f.Name, 0, secretVA-table, fr.Base)
		run.marks = append(run.marks, rec.Mark())
	}
	run.rec = rec
	return run, nil
}

// relsecPair is the oracle's only pair runner: it runs both members of the
// secret pair (secretA, secretB) over targets, each on a machine from boot,
// and compares their traces gadget by gadget. The cell counts member A's
// events and the gadgets whose traces differ; the runs are returned for the
// witness, which inspects the divergent observations themselves.
func relsecPair(boot relsecBoot, secretA, secretB byte, targets []*kimage.Func, capacity int) (RelSecCell, [2]relsecRun, error) {
	cell := RelSecCell{Gadgets: len(targets)}
	var runs [2]relsecRun
	for i, secret := range [2]byte{secretA, secretB} {
		var err error
		if runs[i], err = relsecMember(boot, secret, targets, capacity); err != nil {
			return cell, runs, fmt.Errorf("member %c: %w", "AB"[i], err)
		}
	}
	for i, f := range targets {
		cell.Events += runs[0].marks[i].N
		if runs[0].marks[i] != runs[1].marks[i] {
			cell.Diverged++
			if cell.FirstDiv == "" {
				cell.FirstDiv = f.Name
			}
		}
	}
	return cell, runs, nil
}

// relsecGrid runs relsecPair over the driveable census, split into
// relsecShards cells per arm. Cell a*shards+s is CellSpec{exp, arms[a],
// "shard=s"}, and its secret pair derives from that label's seed, so a
// caller reusing RelSec's labels reuses its secrets. boot(a) builds arm a's
// members.
func (h *Harness) relsecGrid(exp string, arms []string, boot func(arm int) relsecBoot) ([]RelSecCell, []error) {
	targets := relsecTargets(h.Img)
	shards := min(relsecShards, len(targets))
	var specs []CellSpec
	for _, arm := range arms {
		for s := 0; s < shards; s++ {
			specs = append(specs, CellSpec{exp, arm, fmt.Sprintf("shard=%d", s)})
		}
	}
	return runGrid(h, specs, func(_ context.Context, i int, spec CellSpec) (RelSecCell, error) {
		s := i % shards
		lo, hi := s*len(targets)/shards, (s+1)*len(targets)/shards
		sA, sB := relsecSecrets(spec.seed(h.Opt.Seed))
		cell, _, err := relsecPair(boot(i/shards), sA, sB, targets[lo:hi], relsecCellCap)
		if err != nil {
			err = fmt.Errorf("%s: %w", spec, err)
		}
		return cell, err
	})
}

// relsecSecrets derives a cell's secret pair from its seed: a random byte
// and its complement, so every bit differs and the pair exercises the whole
// channel.
func relsecSecrets(seed int64) (byte, byte) {
	s := byte(rand.New(rand.NewSource(seed)).Intn(256))
	return s, ^s
}

// RelSec runs the relative-security experiment: the scheme × census-shard
// equivalence grid on the parallel cell runner, then the distinguishing
// witness for the insecure baseline and the repair loop (both sequential,
// both seeded from the same root, so the whole report replays at any -jobs).
func (h *Harness) RelSec() (*RelSecReport, error) {
	if len(relsecTargets(h.Img)) == 0 {
		return nil, fmt.Errorf("relsec: no driveable gadgets in census")
	}
	arms := make([]string, len(RelSecSchemes))
	for i, kind := range RelSecSchemes {
		arms[i] = kind.String()
	}
	cells, errs := h.relsecGrid("relsec", arms, func(arm int) relsecBoot {
		return h.schemeBoot(RelSecSchemes[arm])
	})
	shards := len(cells) / len(arms)
	for i := range cells {
		cells[i].Scheme, cells[i].Shard = RelSecSchemes[i/shards], i%shards
		if errs[i] != nil {
			cells[i].Err = errs[i].Error()
		}
	}

	witness, err := h.witness()
	if err != nil {
		return &RelSecReport{Cells: cells}, fmt.Errorf("relsec witness: %w", err)
	}
	repair, err := h.relsecRepair()
	if err != nil {
		return &RelSecReport{Cells: cells, Witness: witness}, fmt.Errorf("relsec repair: %w", err)
	}
	return &RelSecReport{Cells: cells, Witness: witness, Repair: repair}, nil
}

// relsecWitness exhibits and minimizes a distinguishing trace for the
// insecure baseline through the known CVE-2022-27223 v1 gadget: first a
// full-complement secret pair to locate the first divergent observation,
// then eight single-bit pairs to report exactly which secret bits the trace
// determines.
func (h *Harness) relsecWitness(seed int64) (*RelSecWitness, error) {
	gadget := h.Img.MustFunc("xusb_ioctl_gadget")
	targets := []*kimage.Func{gadget}
	boot := h.schemeBoot(schemes.Unsafe)
	sA, sB := relsecSecrets(seed)
	_, runs, err := relsecPair(boot, sA, sB, targets, relsecWitnessCap)
	if err != nil {
		return nil, err
	}
	a, b := runs[0], runs[1]
	w := &RelSecWitness{
		Gadget: gadget.Name, SecretA: sA, SecretB: sB,
		LenA: a.rec.Len(), LenB: b.rec.Len(), ProbeBase: a.frBase,
	}
	idx, ea, eb, ok := obs.FirstDivergence(a.rec, b.rec)
	if !ok {
		return nil, fmt.Errorf("UNSAFE traces for %s are equal — no witness", gadget.Name)
	}
	w.Index, w.EventA, w.EventB = idx, ea, eb

	// Minimization: flip one secret bit at a time. A diverging single-bit
	// pair proves the trace determines that bit.
	for bit := 0; bit < 8; bit++ {
		cell, _, err := relsecPair(boot, sA, sA^(1<<bit), targets, 1)
		if err != nil {
			return nil, fmt.Errorf("bit %d %w", bit, err)
		}
		if cell.Diverged > 0 {
			w.LeakedBits |= 1 << bit
		}
	}
	return w, nil
}

// relsecLeakCount counts the set bits of the leak mask.
func relsecLeakCount(mask byte) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// repairSeq is the repair loop's find→harden sequence: each scan of the
// unhardened scope names one function to fence, until a scan comes back
// clean. It is a pure function of the image and the run seed, so -exp
// relsec re-verifies over it and -exp staticflow prices it without
// scanning again.
type repairSeq struct {
	seed   int64
	steps  []scanner.Finding // the finding that fenced each step's function
	ranges []schemes.VARange // the fenced functions, sorted by Start
	clean  bool              // the last scan found nothing
	// blanket is the fenced load sites a kernel-wide FENCE would cover.
	blanket int
}

// repairScan memoizes the repair loop's scan sequence on the harness. The
// loop hardens one more function per scan, so it ends within one scan per
// function; clean is false only if it did not.
func (h *Harness) repairScan() *repairSeq {
	h.repairOnce.Do(func() {
		img := h.Img
		s := &repairSeq{seed: CellSeed(h.Opt.Seed, "relsec", "repair")}
		scope := allFuncIDs(img)
		hardened := map[int]bool{}
		for iter := 1; iter <= len(scope)+1; iter++ {
			live := scope[:0:0]
			for _, id := range scope {
				if !hardened[id] {
					live = append(live, id)
				}
			}
			sc := scanner.Scan(img, live, CellSeed(s.seed, "scan", fmt.Sprint(iter)))
			if len(sc.Findings) == 0 {
				s.clean = true
				break
			}
			f := img.FuncByID(sc.Findings[0].FuncID)
			hardened[f.ID] = true
			s.ranges = insertRange(s.ranges, schemes.VARange{Start: f.VA, End: f.End()})
			s.steps = append(s.steps, sc.Findings[0])
		}
		for _, id := range scope {
			s.blanket += scanner.FenceSites(img.FuncByID(id))
		}
		h.repair = s
	})
	return h.repair
}

// witness memoizes -exp relsec's distinguishing witness on the harness;
// -exp staticflow checks that the same trace is statically flagged.
func (h *Harness) witness() (*RelSecWitness, error) {
	h.witnessOnce.Do(func() {
		h.wit, h.witErr = h.relsecWitness(CellSeed(h.Opt.Seed, "relsec", "witness"))
	})
	return h.wit, h.witErr
}

// relsecRepair runs the CureSpec-style loop over the memoized scan
// sequence: each step fences exactly the function the scan found, and a
// driveable step re-verifies its gadget with the differential oracle under
// the fences accumulated so far, and is trace-equal only if the secret
// pair's traces no longer differ. It then prices the converged repair
// against blanket FENCE, in fenced load sites and in LEBench cycles.
func (h *Harness) relsecRepair() (*RelSecRepair, error) {
	img := h.Img
	scan := h.repairScan()
	rep := &RelSecRepair{Clean: scan.clean, BlanketSites: scan.blanket}
	var ranges []schemes.VARange
	for i, found := range scan.steps {
		f := img.FuncByID(found.FuncID)
		ranges = insertRange(ranges, schemes.VARange{Start: f.VA, End: f.End()})
		step := RelSecRepairStep{
			Iter: i + 1, Func: f.Name, Kind: found.Kind, Sites: scanner.FenceSites(f),
		}
		rep.TotalSites += step.Sites
		if relsecTableOff(f) != 0 {
			equal, err := h.fencedPairEqual(f, ranges, CellSeed(scan.seed, "verify", f.Name))
			if err != nil {
				return rep, err
			}
			step.Checked, step.TraceEqual = true, equal
		}
		rep.Steps = append(rep.Steps, step)
	}
	if !scan.clean {
		return rep, fmt.Errorf("repair loop did not converge after %d iterations", len(scan.steps))
	}

	// Final pass: steps whose immediate re-check still diverged must be
	// trace-equal under the converged range set.
	for _, s := range rep.Steps {
		if !s.Checked || s.TraceEqual {
			continue
		}
		rep.FinalRecheck++
		f := img.MustFunc(s.Func)
		equal, err := h.fencedPairEqual(f, scan.ranges, CellSeed(scan.seed, "final", f.Name))
		if err != nil {
			return rep, err
		}
		if equal {
			rep.FinalEqual++
		}
	}

	p := h.relsecPrices()
	rep.UnsafeCycles, rep.SelectiveCycles, rep.BlanketCycles = p.unsafe, p.repair, p.blanket
	return rep, p.err
}

// insertRange keeps the hardened ranges sorted by Start (the selective
// policy's binary search requires it).
func insertRange(rs []schemes.VARange, r schemes.VARange) []schemes.VARange {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Start >= r.Start })
	rs = append(rs, schemes.VARange{})
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	return rs
}

// fencedPairEqual drives gadget f on both members of the secret pair drawn
// from seed under SelectiveFencePolicy over ranges, and reports whether the
// members' traces are equal.
func (h *Harness) fencedPairEqual(f *kimage.Func, ranges []schemes.VARange, seed int64) (bool, error) {
	sA, sB := relsecSecrets(seed)
	cell, _, err := relsecPair(h.fenceBoot(ranges), sA, sB, []*kimage.Func{f}, relsecCellCap)
	if err != nil {
		return false, fmt.Errorf("verify %s %w", f.Name, err)
	}
	return cell.Diverged == 0, nil
}

// relsecPrices is the memoized LEBench pricing -exp relsec and -exp
// staticflow both report: unprotected, under the repair loop's fences, and
// under blanket FENCE.
type relsecPrices struct {
	once                    sync.Once
	unsafe, repair, blanket float64
	err                     error
}

// relsecPrices prices the three policies once per harness.
func (h *Harness) relsecPrices() *relsecPrices {
	p := &h.prices
	p.once.Do(func() {
		if p.unsafe, p.err = h.relsecCycles(nil, false); p.err != nil {
			return
		}
		if p.repair, p.err = h.relsecCycles(h.repairScan().ranges, false); p.err != nil {
			return
		}
		p.blanket, p.err = h.relsecCycles(nil, true)
	})
	return p
}

// relsecCycles prices a small LEBench slice under a repair policy: nil
// ranges + blanket=false is the unprotected baseline, non-nil ranges the
// selective repair, blanket=true kernel-wide FENCE.
func (h *Harness) relsecCycles(ranges []schemes.VARange, blanket bool) (float64, error) {
	k, err := h.BootMachine(kernel.DefaultConfig())
	if err != nil {
		return 0, err
	}
	defer k.Release()
	switch {
	case blanket:
		k.Core.Policy = &schemes.FencePolicy{}
	case ranges != nil:
		k.Core.Policy = &schemes.SelectiveFencePolicy{Ranges: ranges}
	}
	tests := lebench.Tests()
	if len(tests) > 2 {
		tests = tests[:2]
	}
	var total float64
	for _, tst := range tests {
		res, err := lebench.RunTest(k, tst, 2)
		if err != nil {
			return 0, err
		}
		total += res.CyclesPerIter
	}
	return total, nil
}

// PrintRelSec renders the experiment.
func PrintRelSec(w io.Writer, rep *RelSecReport) {
	Section(w, "Relative security: observation-trace equivalence over the gadget census")
	fmt.Fprintf(w, "%-14s %6s %8s %9s %9s  %s\n",
		"scheme", "shard", "gadgets", "diverged", "events", "verdict")
	perScheme := map[schemes.Kind]*RelSecCell{}
	var order []schemes.Kind
	for i := range rep.Cells {
		c := rep.Cells[i]
		verdict := "trace-equal"
		if c.Err != "" {
			verdict = "error"
		} else if c.Diverged > 0 {
			verdict = "DISTINGUISHABLE (" + c.FirstDiv + ")"
		}
		fmt.Fprintf(w, "%-14s %6d %8d %9d %9d  %s\n",
			c.Scheme, c.Shard, c.Gadgets, c.Diverged, c.Events, verdict)
		agg, ok := perScheme[c.Scheme]
		if !ok {
			agg = &RelSecCell{Scheme: c.Scheme}
			perScheme[c.Scheme] = agg
			order = append(order, c.Scheme)
		}
		agg.Gadgets += c.Gadgets
		agg.Diverged += c.Diverged
		if agg.Err == "" {
			agg.Err = c.Err
		}
	}
	fmt.Fprintf(w, "\nper-scheme verdicts:\n")
	for _, kind := range order {
		c := perScheme[kind]
		switch {
		case c.Err != "":
			fmt.Fprintf(w, "  %-14s incomplete: %s\n", kind, firstLine(c.Err))
		case c.Diverged > 0:
			fmt.Fprintf(w, "  %-14s distinguishable on %d/%d gadgets — leaks\n",
				kind, c.Diverged, c.Gadgets)
		default:
			fmt.Fprintf(w, "  %-14s trace-equivalent over %d gadgets — relatively secure\n",
				kind, c.Gadgets)
		}
	}

	if rep.Witness != nil {
		PrintRelSecWitness(w, rep.Witness)
	}
	if rep.Repair != nil {
		PrintRelSecRepair(w, rep.Repair)
	}
}

// PrintRelSecWitness renders the distinguishing trace.
func PrintRelSecWitness(w io.Writer, wit *RelSecWitness) {
	Section(w, fmt.Sprintf("Distinguishing-trace witness (UNSAFE / %s)", wit.Gadget))
	fmt.Fprintf(w, "secret pair: A=%#02x B=%#02x (machines otherwise identical)\n",
		wit.SecretA, wit.SecretB)
	fmt.Fprintf(w, "trace lengths: A=%d B=%d observations; first divergence at index %d\n",
		wit.LenA, wit.LenB, wit.Index)
	fmt.Fprintf(w, "  A[%d]: %s\n", wit.Index, wit.EventA)
	fmt.Fprintf(w, "  B[%d]: %s\n", wit.Index, wit.EventB)
	if wit.EventA.Kind == obs.KindSpecLoad && wit.EventB.Kind == obs.KindSpecLoad {
		fmt.Fprintf(w, "decoded probe-line index ((addr-%#x)>>12): A encodes %#02x, B encodes %#02x\n",
			wit.ProbeBase, wit.DecodedA(), wit.DecodedB())
	}
	fmt.Fprintf(w, "secret bits determined by the trace (single-bit pairs): %08b (%d of 8)\n",
		wit.LeakedBits, relsecLeakCount(wit.LeakedBits))
}

// PrintRelSecRepair renders the repair loop.
func PrintRelSecRepair(w io.Writer, rep *RelSecRepair) {
	Section(w, "CureSpec-style repair loop: find -> harden one function -> re-verify")
	fmt.Fprintf(w, "%5s  %-28s %-7s %11s  %s\n",
		"iter", "function", "channel", "fence-sites", "differential re-check")
	for _, s := range rep.Steps {
		check := "-"
		if s.Checked {
			check = "trace-equal"
			if !s.TraceEqual {
				check = "STILL DISTINGUISHABLE"
			}
		}
		fmt.Fprintf(w, "%5d  %-28s %-7s %11d  %s\n", s.Iter, s.Func, s.Kind, s.Sites, check)
	}
	if rep.Clean {
		fmt.Fprintf(w, "converged: census clean after %d repairs\n", len(rep.Steps))
	} else {
		fmt.Fprintf(w, "DID NOT CONVERGE after %d repairs\n", len(rep.Steps))
	}
	if rep.FinalRecheck > 0 {
		fmt.Fprintf(w, "final differential pass: %d/%d gadgets still distinguishable mid-loop are trace-equal under the converged fences\n",
			rep.FinalEqual, rep.FinalRecheck)
	}
	pct := 0.0
	if rep.BlanketSites > 0 {
		pct = 100 * float64(rep.TotalSites) / float64(rep.BlanketSites)
	}
	fmt.Fprintf(w, "repair cost: %d fenced loads vs %d under blanket FENCE (%.1f%%)\n",
		rep.TotalSites, rep.BlanketSites, pct)
	if rep.UnsafeCycles > 0 {
		fmt.Fprintf(w, "cycle cost (LEBench slice, normalized to UNSAFE): selective %.2fx vs blanket %.2fx\n",
			rep.SelectiveCycles/rep.UnsafeCycles, rep.BlanketCycles/rep.UnsafeCycles)
	}
}
