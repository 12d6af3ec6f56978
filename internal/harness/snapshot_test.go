package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// runSchemeDigest installs a scheme policy on the machine, runs the full
// LEBench suite, and digests the per-test cycle counts plus the core's
// final timing and security counters. Two machines are observationally
// identical iff their digests match.
func runSchemeDigest(t *testing.T, k *kernel.Kernel, kind schemes.Kind) string {
	t.Helper()
	defer k.Release()
	k.Core.Policy = schemes.New(kind, k.DSV, k.ISV)
	var out bytes.Buffer
	for _, tst := range lebench.Tests() {
		res, err := lebench.RunTest(k, tst, 3)
		if err != nil {
			t.Fatalf("%v/%s: %v", kind, tst.Name, err)
		}
		fmt.Fprintf(&out, "%s=%v;", tst.Name, res.CyclesPerIter)
	}
	fmt.Fprintf(&out, "now=%v insts=%d fences=%d mispred=%d entries=%d",
		k.Core.Now(), k.Core.Stats.Insts, k.Core.Stats.Fences,
		k.Core.Stats.Mispredicts, k.Core.Stats.KernelEntries)
	return out.String()
}

// TestCloneMatchesFreshPerScheme is the per-scheme differential the
// snapshot engine is gated on: under every defense scheme, a machine cloned
// from the boot snapshot must produce exactly the measurements a freshly
// booted machine produces.
func TestCloneMatchesFreshPerScheme(t *testing.T) {
	h := New(QuickOptions())
	for _, kind := range []schemes.Kind{
		schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT, schemes.Perspective,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			fresh, err := kernel.New(kernel.DefaultConfig(), h.Img)
			if err != nil {
				t.Fatalf("fresh boot: %v", err)
			}
			want := runSchemeDigest(t, fresh, kind)

			clone, err := h.BootMachine(kernel.DefaultConfig())
			if err != nil {
				t.Fatalf("BootMachine: %v", err)
			}
			if got := runSchemeDigest(t, clone, kind); got != want {
				t.Errorf("clone diverged from fresh boot under %v:\n got %s\nwant %s",
					kind, got, want)
			}
		})
	}
}

// TestFig92SnapshotVsFreshBoots renders the fig 9.2 grid twice — once on
// the normal snapshot-backed harness and once with the cache bypassed so
// every cell pays a real kernel.New — and requires byte-identical reports.
func TestFig92SnapshotVsFreshBoots(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential")
	}
	render := func(forceFresh bool) string {
		h := New(determinismOptions(1))
		h.forceFresh = forceFresh
		cells, err := h.Fig92()
		if err != nil {
			t.Fatalf("forceFresh=%v: %v", forceFresh, err)
		}
		var buf bytes.Buffer
		PrintFig92(&buf, cells, h.Opt.Schemes)
		return buf.String()
	}
	snap, fresh := render(false), render(true)
	if snap != fresh {
		t.Errorf("snapshot-backed grid differs from fresh-boot grid\n--- snapshot ---\n%s\n--- fresh ---\n%s",
			snap, fresh)
	}
}

// TestBootMachineConcurrent hammers the config-keyed snapshot cache from 8
// goroutines, mixing the two configs the harness boots (DefaultConfig and
// sensitivityCell's baseline slab), and checks every clone behaves
// identically per config. Run under -race this pins the cache's
// thread-safety contract for `-jobs N` cells.
func TestBootMachineConcurrent(t *testing.T) {
	h := New(QuickOptions())
	cfgBaselineSlab := kernel.DefaultConfig()
	cfgBaselineSlab.SecureSlab = false
	configs := []kernel.Config{kernel.DefaultConfig(), cfgBaselineSlab}

	digests := make([]string, 8)
	var wg sync.WaitGroup
	for g := range digests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k, err := h.BootMachine(configs[g%len(configs)])
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			digests[g] = runSchemeDigest(t, k, schemes.Unsafe)
		}(g)
	}
	wg.Wait()
	for g := range digests {
		if digests[g] != digests[g%len(configs)] {
			t.Errorf("concurrent clone %d diverged from clone %d of the same config",
				g, g%len(configs))
		}
	}
}
