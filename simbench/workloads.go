package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/isvgen"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// benchSchemes are the schemes every workload but eval-quick runs, with
// their metric-name suffixes.
var (
	benchSchemes = [nSchemes]schemes.Kind{schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT, schemes.Perspective}
	schemeNames  = [nSchemes]string{"unsafe", "fence", "dom", "stt", "perspective"}
)

const nSchemes = 5

// instance is a workload's state between set-up and exit.
type instance interface {
	// pass runs one pass of fixed work. For workloads whose passes repeat
	// exactly it sets p.digest.
	pass(p *pass) error
	// warmDigest is the sim_digest after the warm-up pass.
	warmDigest() uint64
	// decorate switches the policy decorators on or off. Only set-ups made
	// for a traced run have them.
	decorate(on bool)
	release()
}

// setupFunc builds a workload's state once, timing each step into steps
// under the span parent.
type setupFunc func(c *config, tr *tracer, parent int, steps map[string]time.Duration) (instance, error)

// timeStep runs f as the set-up step name.
func timeStep(tr *tracer, parent int, steps map[string]time.Duration, name string, f func() error) error {
	s := tr.begin(name, parent, 0)
	err := f()
	steps[name] += tr.end(s, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// schemeMachine boots a machine for kind the way the harness does: a clone
// of the boot snapshot running the scheme's policy, with the workload's view
// installed in every new process under Perspective.
func schemeMachine(h *harness.Harness, kind schemes.Kind, view *isvgen.Result) (*kernel.Kernel, error) {
	k, err := h.BootMachine(kernel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	k.Core.Policy = schemes.New(kind, k.DSV, k.ISV)
	if kind.IsPerspective() {
		k.OnProcessCreate = func(t *kernel.Task) { k.ISV.Install(t.Ctx(), view.View) }
	}
	return k, nil
}

// bootAndViews is the set-up prefix the harness-based workloads share: a
// harness for opt, its boot snapshot, and the views of the workloads keep
// selects.
func bootAndViews(opt harness.Options, tr *tracer, parent int, steps map[string]time.Duration,
	keep func(harness.Workload) bool) (*harness.Harness, map[string]*harness.Views, error) {
	var h *harness.Harness
	timeStep(tr, parent, steps, "harness.new", func() error { h = harness.New(opt); return nil })
	err := timeStep(tr, parent, steps, "harness.boot", func() error {
		k, err := h.BootMachine(kernel.DefaultConfig())
		if err == nil {
			k.Release()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	views := map[string]*harness.Views{}
	err = timeStep(tr, parent, steps, "harness.views", func() error {
		for _, w := range h.Workloads() {
			if !keep(w) {
				continue
			}
			v, err := h.ViewsFor(w)
			if err != nil {
				return err
			}
			views[w.Name] = v
		}
		return nil
	})
	return h, views, err
}

// fleetMachine is one warm keep-alive connection under one scheme.
type fleetMachine struct {
	scheme int // index into benchSchemes
	k      *kernel.Kernel
	conn   *apps.FleetConn
	policy policyPair
	cycles uint64 // FNV-1a over this machine's per-request cycles, in order
}

// fleet drives keepalive and keepalive-paper: one warm machine per (scheme,
// app), requests in round-robin batches in a seeded machine order.
type fleet struct {
	ms       []*fleetMachine
	passReqs int
}

// fleetBatch is how many requests one machine serves before the next
// machine's turn. Interleaving finely keeps every scheme's batches spread
// over the whole pass, so host noise hits all schemes alike.
const fleetBatch = 25

func setupFleet(spec kimage.Spec, passReqs, smallReqs int) setupFunc {
	return func(c *config, tr *tracer, parent int, steps map[string]time.Duration) (instance, error) {
		opt := harness.QuickOptions()
		opt.Spec = spec
		h, views, err := bootAndViews(opt, tr, parent, steps, func(w harness.Workload) bool { return w.App != nil })
		if err != nil {
			return nil, err
		}
		f := &fleet{passReqs: passReqs}
		if c.small {
			f.passReqs = smallReqs
		}
		err = timeStep(tr, parent, steps, "apps.dial", func() error {
			for si, kind := range benchSchemes {
				for _, a := range apps.All() {
					k, err := schemeMachine(h, kind, views[a.Name].Select(kind))
					if err != nil {
						return err
					}
					m := &fleetMachine{scheme: si, k: k, cycles: fnvOffset}
					f.ms = append(f.ms, m)
					m.policy = newPolicyPair(k, tr.clock(si))
					if m.conn, err = apps.DialFleet(a, k); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			f.release()
			return nil, err
		}
		return f, nil
	}
}

func (f *fleet) pass(p *pass) error {
	order := make([]int, len(f.ms))
	before := make([]counters, len(f.ms))
	pol := make([]policyCounts, len(f.ms))
	for i, m := range f.ms {
		order[i] = i
		before[i] = readCounters(m.k)
		pol[i] = m.policy.timed.counts()
	}
	rounds := f.passReqs / (fleetBatch * len(f.ms))
	for r := 0; r < rounds; r++ {
		p.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			m := f.ms[i]
			acc := &p.schemes[m.scheme]
			insts := m.k.Core.Stats.Insts
			t0 := time.Now()
			for j := 0; j < fleetBatch; j++ {
				op := p.begin("apps.request", p.span)
				calls := m.policy.timed.counts().calls
				faults := m.k.Stats.HandlerFaults
				cyc, err := m.conn.ServeOne()
				charge := m.policy.timed.charge(m.policy.timed.counts().calls - calls)
				d := p.tr.end(op, charge)
				if p.traced {
					p.opNS = append(p.opNS, float64(d))
				}
				p.ops++
				if err != nil || m.k.Stats.HandlerFaults != faults {
					p.failed++
				}
				m.cycles = fnvWord(m.cycles, math.Float64bits(cyc))
				acc.cycles += cyc
				acc.policyNS += charge
			}
			acc.hostNS += int64(time.Since(t0))
			acc.insts += m.k.Core.Stats.Insts - insts
			acc.ops += fleetBatch
		}
	}
	for i, m := range f.ms {
		acc := &p.schemes[m.scheme]
		acc.ctr.add(readCounters(m.k).sub(before[i]))
		now := m.policy.timed.counts()
		acc.policy.add(policyCounts{now.calls - pol[i].calls, now.blocks - pol[i].blocks})
	}
	return nil
}

func (f *fleet) warmDigest() uint64 {
	h := fnv.New64a()
	for _, m := range f.ms {
		hashMachine(h, m.k)
		hashWords(h, m.k.StateDigest(), m.cycles)
	}
	return h.Sum64()
}

func (f *fleet) decorate(on bool) {
	for _, m := range f.ms {
		m.policy.install(m.k, on)
	}
}

func (f *fleet) release() {
	for _, m := range f.ms {
		m.k.Release()
	}
}

// churn drives lebench-churn: every LEBench test under every scheme, each
// cell on a fresh snapshot clone, in a seeded cell order.
type churn struct {
	h         *harness.Harness
	view      *harness.Views
	iters     int
	decorated bool
	last      uint64
}

func setupChurn(iters, smallIters int) setupFunc {
	return func(c *config, tr *tracer, parent int, steps map[string]time.Duration) (instance, error) {
		h, views, err := bootAndViews(harness.QuickOptions(), tr, parent, steps,
			func(w harness.Workload) bool { return w.App == nil })
		if err != nil {
			return nil, err
		}
		ch := &churn{h: h, view: views["LEBench"], iters: iters, decorated: c.trace}
		if c.small {
			ch.iters = smallIters
		}
		return ch, nil
	}
}

func (ch *churn) pass(p *pass) error {
	tests := lebench.Tests()
	cells := len(tests) * nSchemes
	sums := make([]uint64, cells)
	p.testNS = map[string]float64{}
	for _, ci := range p.rng.Perm(cells) {
		tst, si := tests[ci/nSchemes], ci%nSchemes
		acc := &p.schemes[si]
		op := p.begin("lebench.cell", p.span)
		cl := p.begin("harness.clone", op.id)
		kind := benchSchemes[si]
		k, err := schemeMachine(ch.h, kind, ch.view.Select(kind))
		cloneD := p.tr.end(cl, 0)
		p.ops++
		if err != nil {
			p.tr.end(op, 0)
			p.failed++
			continue
		}
		var clock *consultClock
		if ch.decorated {
			clock = p.tr.clock(si)
		}
		pp := newPolicyPair(k, clock)
		before := readCounters(k)
		run := p.begin("lebench.run", op.id)
		res, err := lebench.RunTest(k, tst, ch.iters)
		charge := pp.timed.charge(pp.timed.counts().calls)
		runD := p.tr.end(run, charge)
		p.tr.end(op, 0)
		delta := readCounters(k).sub(before)
		if err != nil || delta.Kernel.HandlerFaults != 0 {
			p.failed++
		}
		acc.hostNS += int64(runD)
		acc.insts += delta.CPU.Insts
		acc.ops++
		acc.cycles += k.Core.Now()
		acc.ctr.add(delta)
		acc.policy.add(pp.timed.counts())
		acc.policyNS += charge
		h := fnv.New64a()
		hashWords(h, math.Float64bits(res.CyclesPerIter))
		hashMachine(h, k)
		sums[ci] = h.Sum64()
		if p.traced {
			p.cloneNS = append(p.cloneNS, float64(cloneD))
		}
		p.testNS[tst.Name] += float64(cloneD+runD) / nSchemes
		k.Release()
	}
	h := fnv.New64a()
	hashWords(h, sums...)
	p.digest = h.Sum64()
	ch.last = p.digest
	return nil
}

func (ch *churn) warmDigest() uint64 { return ch.last }
func (ch *churn) decorate(on bool)   { ch.decorated = on }
func (ch *churn) release()           {}

// evalQuick drives eval-quick: the whole experiment registry under the
// supervisor, as `perspective-sim -exp all` runs it, set-up included.
type evalQuick struct {
	opt  harness.Options
	last uint64
}

// evalJobs is eval-quick's cell worker count: the host's two cores.
const evalJobs = 2

func setupEvalQuick(c *config, tr *tracer, parent int, steps map[string]time.Duration) (instance, error) {
	opt := evalOptions(c)
	// The supervisor builds its own harness each pass; this measures the
	// same set-up a reproducer pays before the first cell.
	if _, _, err := bootAndViews(opt, tr, parent, steps, func(harness.Workload) bool { return true }); err != nil {
		return nil, err
	}
	return &evalQuick{opt: opt}, nil
}

// evalOptions is the quick-scale evaluation at the run's seed. The small
// size trims every per-cell budget so the registry runs in well under a
// second.
func evalOptions(c *config) harness.Options {
	opt := harness.QuickOptions()
	opt.Seed = c.seed
	opt.Jobs = evalJobs
	if c.small {
		opt.Schemes = []schemes.Kind{schemes.Unsafe, schemes.Perspective}
		opt.LEBenchIters = 1
		opt.AppRequests = 4
		opt.TailRequests = 1000
		opt.TailFleet = 1
		opt.TailProbes = 8
	}
	return opt
}

func (e *evalQuick) pass(p *pass) error {
	cells := harness.CellsRun()
	var out bytes.Buffer
	res, err := harness.SuperviseExperiments(e.opt, harness.SupervisorOptions{Retries: 1}, harness.Experiments(), &out)
	n := harness.CellsRun() - cells
	p.ops += n
	if err != nil {
		p.failed += n
	}
	p.expS = map[string]float64{}
	for _, r := range res {
		p.expS[r.Name] = float64(r.DurationMS) / 1000
	}
	h := fnv.New64a()
	h.Write(out.Bytes())
	p.digest = h.Sum64()
	e.last = p.digest
	return nil
}

func (e *evalQuick) warmDigest() uint64 { return e.last }
func (e *evalQuick) decorate(bool)      {}
func (e *evalQuick) release()           {}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds one 64-bit word into a running FNV-1a hash without
// allocating (the fleet hashes every request's cycles).
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
