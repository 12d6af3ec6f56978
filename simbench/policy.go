package main

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/kernel"
)

// policySample is how often the decorator times a consult: every consult
// is counted and one in policySample is timed. Timing every consult would
// cost more than most consults do.
const policySample = 64

// consultClock is one scheme's sampled consult time, shared by all of that
// scheme's decorators in a run, so that a fresh machine's first consults
// are charged at a settled rate.
type consultClock struct {
	epoch   time.Time
	sampled uint64
	netNS   int64 // Σ (consult reading − empty reading)
}

func newConsultClocks() *[nSchemes]consultClock {
	var cs [nSchemes]consultClock
	epoch := time.Now()
	for i := range cs {
		cs[i].epoch = epoch
	}
	return &cs
}

// meanNS is the mean consult time net of the timer's own cost.
func (c *consultClock) meanNS() float64 {
	if c == nil || c.sampled == 0 {
		return 0
	}
	return max(0, float64(c.netNS)/float64(c.sampled))
}

// policyCounts are a decorator's consults and the consults that did not
// allow the transmitter.
type policyCounts struct{ calls, blocks uint64 }

func (a *policyCounts) add(b policyCounts) {
	a.calls += b.calls
	a.blocks += b.blocks
}

// timedPolicy is the traced run's cpu.Policy decorator: it forwards every
// method to the scheme's own policy, counts consults per machine and times
// a sample of them on the scheme's clock.
type timedPolicy struct {
	cpu.Policy
	clock *consultClock
	policyCounts
}

// OnTransmit implements cpu.Policy.
func (p *timedPolicy) OnTransmit(a *cpu.Access) cpu.Verdict {
	p.calls++
	var v cpu.Verdict
	if p.calls%policySample == 0 {
		// An empty region timed just before the consult, in the same
		// pipeline state, stands for the clock reads' own cost.
		t0 := time.Since(p.clock.epoch)
		t1 := time.Since(p.clock.epoch)
		v = p.Policy.OnTransmit(a)
		t2 := time.Since(p.clock.epoch)
		p.clock.netNS += int64((t2 - t1) - (t1 - t0))
		p.clock.sampled++
	} else {
		v = p.Policy.OnTransmit(a)
	}
	if v != cpu.Allow {
		p.blocks++
	}
	return v
}

// counts returns the counters so far (zero for an undecorated machine).
func (p *timedPolicy) counts() policyCounts {
	if p == nil {
		return policyCounts{}
	}
	return p.policyCounts
}

// charge is the host time, in ns, that calls consults stand for at the
// scheme's mean consult time.
func (p *timedPolicy) charge(calls uint64) int64 {
	if p == nil {
		return 0
	}
	return int64(float64(calls) * p.clock.meanNS())
}

// timedGatePolicy additionally forwards cpu.TransientStoreGate, which the
// core discovers by type assertion: dropping it would change what STT does.
type timedGatePolicy struct {
	*timedPolicy
	gate cpu.TransientStoreGate
}

// BlockTransientStore implements cpu.TransientStoreGate.
func (p timedGatePolicy) BlockTransientStore(dataTainted bool) bool {
	return p.gate.BlockTransientStore(dataTainted)
}

// decorate wraps p to count and time its consults on clock. cpu.AllowAll
// is never wrapped: the core recognises UNSAFE by its concrete type and
// takes fast paths a wrapper would switch off. It returns the policy to
// install and its counters (nil for UNSAFE).
func decorate(p cpu.Policy, clock *consultClock) (cpu.Policy, *timedPolicy) {
	if _, ok := p.(cpu.AllowAll); ok {
		return p, nil
	}
	tp := &timedPolicy{Policy: p, clock: clock}
	if g, ok := p.(cpu.TransientStoreGate); ok {
		return timedGatePolicy{tp, g}, tp
	}
	return tp, tp
}

// policyPair is a machine's scheme policy and, in traced runs, its
// decorated form and counters.
type policyPair struct {
	plain, wrapped cpu.Policy
	timed          *timedPolicy
}

// newPolicyPair takes k's installed policy; given a clock it decorates the
// policy and installs the decorated form.
func newPolicyPair(k *kernel.Kernel, clock *consultClock) policyPair {
	pp := policyPair{plain: k.Core.Policy, wrapped: k.Core.Policy}
	if clock != nil {
		pp.wrapped, pp.timed = decorate(pp.plain, clock)
		k.Core.Policy = pp.wrapped
	}
	return pp
}

// install puts the decorated (on) or plain policy on k.
func (pp policyPair) install(k *kernel.Kernel, on bool) {
	if on {
		k.Core.Policy = pp.wrapped
	} else {
		k.Core.Policy = pp.plain
	}
}
