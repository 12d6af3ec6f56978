package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. IDs start at 1; Parent 0 marks the root.
// Times are nanoseconds since the tracer's epoch. PolicyNS is the policy
// consult time charged to the span (its consults at the scheme's mean
// consult time), which the reconciliation books to the schemes layer
// instead of the span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Op       int64  `json:"op,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	PolicyNS int64  `json:"policy_ns,omitempty"`
}

// tracer times intervals, and when on also keeps them as spans in memory
// until the run ends and owns the schemes' consult clocks. Timing works
// with recording off, so set-up steps and passes are measured the same way
// in both modes.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	clocks *[nSchemes]consultClock
}

// spanRef is an open interval: its span ID (0 when not recorded) and start.
type spanRef struct {
	id    int
	start int64
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.clocks = newConsultClocks()
	}
	return t
}

// clock is scheme si's consult clock, or nil when the run is not traced.
func (t *tracer) clock(si int) *consultClock {
	if t.clocks == nil {
		return nil
	}
	return &t.clocks[si]
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens an interval under parent (0 for the root).
func (t *tracer) begin(name string, parent int, op int64) spanRef {
	r := spanRef{start: t.now()}
	if t.on {
		r.id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: r.id, Parent: parent, Name: name, Op: op, Start: r.start, End: -1})
	}
	return r
}

// end closes r, charging policyNS of it to the policy layer, and returns
// the interval's length.
func (t *tracer) end(r spanRef, policyNS int64) time.Duration {
	now := t.now()
	if r.id > 0 {
		s := &t.spans[r.id-1]
		s.End, s.PolicyNS = now, policyNS
	}
	return time.Duration(now - r.start)
}

// policyLayer names the self-time bucket the decorator's consult time goes
// to.
const policyLayer = "schemes.consult"

// reconcile computes each span name's self time (duration minus children
// minus charged policy time) plus the policy bucket, and checks that the
// breakdown explains the root exactly: one root, every parent present and
// enclosing its children, no negative self time, and Σ self == root
// duration in integer nanoseconds.
func reconcile(spans []span) (self map[string]int64, root int64, err error) {
	self = map[string]int64{}
	child := make([]int64, len(spans)+1)
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			return nil, 0, fmt.Errorf("span %d %q never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			root = s.End - s.Start
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) || s.Parent >= s.ID {
			return nil, 0, fmt.Errorf("span %d %q: parent %d not recorded before it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return nil, 0, fmt.Errorf("span %d %q lies outside its parent %d %q", s.ID, s.Name, p.ID, p.Name)
		}
		child[s.Parent] += s.End - s.Start
	}
	if roots != 1 {
		return nil, 0, fmt.Errorf("%d root spans, want 1", roots)
	}
	var sum int64
	for _, s := range spans {
		st := s.End - s.Start - child[s.ID] - s.PolicyNS
		if st < 0 || s.PolicyNS < 0 {
			return nil, 0, fmt.Errorf("span %d %q: negative self time %d ns", s.ID, s.Name, st)
		}
		self[s.Name] += st
		self[policyLayer] += s.PolicyNS
		sum += st + s.PolicyNS
	}
	if sum != root {
		return nil, 0, fmt.Errorf("self times sum to %d ns, root span is %d ns", sum, root)
	}
	return self, root, nil
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
