package harness

import (
	"testing"

	"repro/internal/kimage"
	"repro/internal/obs"
	"repro/internal/schemes"
)

// Block dispatch must not be a new side channel: for every judged scheme and
// both members of a secret pair, the observation trace recorded while the
// machine dispatches decoded blocks must Equal the trace from a machine
// dispatching every instruction as a one-op block. This is a different claim from the lockstep
// oracle's (identical committed state): here the compared object is exactly
// what the relative-security judgment is computed from — the attacker-visible
// event stream — across the full driveable gadget census.

func relsecEngineDrive(t *testing.T, h *Harness, kind schemes.Kind, secret byte, threaded bool, targets []*kimage.Func) relsecRun {
	t.Helper()
	k, err := h.schemeBoot(kind)()
	if err != nil {
		t.Fatalf("boot %v machine: %v", kind, err)
	}
	defer k.Release()
	if !threaded {
		k.Core.SetProgram(nil)
	}
	run, err := relsecDrive(k, secret, targets, relsecCellCap)
	if err != nil {
		t.Fatalf("%v drive (threaded=%v): %v", kind, threaded, err)
	}
	if threaded && k.Core.Stats.ThreadedInsts == 0 {
		t.Fatalf("%v: block dispatch never ran — comparison vacuous", kind)
	}
	if !threaded && k.Core.Stats.ThreadedInsts != 0 {
		t.Fatalf("%v: reference machine dispatched decoded blocks", kind)
	}
	return run
}

func TestRelSecThreadedTraceEquivalence(t *testing.T) {
	h := relsecHarness()
	targets := relsecTargets(h.Img)
	if len(targets) == 0 {
		t.Fatal("no driveable gadgets in census")
	}
	for _, kind := range RelSecSchemes {
		t.Run(kind.String(), func(t *testing.T) {
			for _, secret := range []byte{0x5a, 0xa5} {
				fast := relsecEngineDrive(t, h, kind, secret, true, targets)
				ref := relsecEngineDrive(t, h, kind, secret, false, targets)
				if fast.frBase != ref.frBase {
					t.Fatalf("secret %#x: probe bases diverged: block %#x, single-op %#x",
						secret, fast.frBase, ref.frBase)
				}
				for i := range fast.marks {
					if fast.marks[i] != ref.marks[i] {
						t.Errorf("secret %#x gadget %s: obs traces diverged: block %+v, single-op %+v",
							secret, targets[i].Name, fast.marks[i], ref.marks[i])
					}
				}
				// The recorders retain the last gadget's segment; when it is
				// the divergent one, name the first differing event.
				if !obs.Equal(fast.rec, ref.rec) {
					if idx, ea, eb, ok := obs.FirstDivergence(fast.rec, ref.rec); ok {
						t.Errorf("secret %#x: last segment diverged at event %d: block %+v, single-op %+v",
							secret, idx, ea, eb)
					}
				}
			}
		})
	}
}
