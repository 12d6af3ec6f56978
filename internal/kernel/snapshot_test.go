package kernel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/kimage"
	"repro/internal/memsim"
)

// driveMachine runs a fixed syscall workload and returns a state digest
// covering timing, core stats, syscall results and user-visible memory.
func driveMachine(t *testing.T, k *Kernel) string {
	t.Helper()
	p, err := k.CreateProcess("diff")
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	var log string
	call := func(nr int, args ...uint64) uint64 {
		r, err := k.Syscall(p, nr, args...)
		if err != nil {
			t.Fatalf("syscall %d: %v", nr, err)
		}
		log += fmt.Sprintf("%d=%d;", nr, r)
		return r
	}
	buf := call(kimage.NRMmap, 4096, 1)
	fd := call(kimage.NROpen)
	call(kimage.NRWrite, fd, buf, 128)
	k.Rewind(p, int(fd))
	call(kimage.NRRead, fd, buf, 128)
	call(kimage.NRGetpid)
	child := call(kimage.NRFork)
	call(kimage.NRBrk, 8192)
	call(kimage.NRClose, fd)
	data, err := k.ReadUser(p, buf, 32)
	if err != nil {
		t.Fatalf("ReadUser: %v", err)
	}
	return fmt.Sprintf("log=%s child=%d now=%v insts=%d loads=%d stores=%d branches=%d mispred=%d fences=%d entries=%d mem=%x",
		log, child, k.Core.Now(), k.Core.Stats.Insts, k.Core.Stats.Loads,
		k.Core.Stats.Stores, k.Core.Stats.Branches, k.Core.Stats.Mispredicts,
		k.Core.Stats.Fences, k.Core.Stats.KernelEntries, data)
}

// TestCloneMatchesFreshBoot is the kernel-level differential: a snapshot
// clone driven through a fixed workload must produce exactly the state a
// fresh boot produces.
func TestCloneMatchesFreshBoot(t *testing.T) {
	fresh, err := New(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fresh.Release()
	want := driveMachine(t, fresh)

	snap, err := NewSnapshot(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	for i := 0; i < 3; i++ {
		c := snap.Clone()
		if got := driveMachine(t, c); got != want {
			t.Errorf("clone %d diverged from fresh boot:\n got %s\nwant %s", i, got, want)
		}
		c.Release()
	}
}

// TestCloneMatchesFreshBootNonDefaultConfigs covers the config axis the
// harness boots besides DefaultConfig: the baseline slab.
func TestCloneMatchesFreshBootNonDefaultConfigs(t *testing.T) {
	for _, mod := range []struct {
		name string
		mut  func(*Config)
	}{
		{"BaselineSlab", func(c *Config) { c.SecureSlab = false }},
	} {
		t.Run(mod.name, func(t *testing.T) {
			cfg := DefaultConfig()
			mod.mut(&cfg)
			fresh, err := New(cfg, testImg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer fresh.Release()
			want := driveMachine(t, fresh)

			snap, err := NewSnapshot(cfg, testImg)
			if err != nil {
				t.Fatalf("NewSnapshot: %v", err)
			}
			c := snap.Clone()
			defer c.Release()
			if got := driveMachine(t, c); got != want {
				t.Errorf("clone diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestClonesIndependent drives two clones of one snapshot through different
// workloads; each must behave as if it were the only machine.
func TestClonesIndependent(t *testing.T) {
	snap, err := NewSnapshot(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	a := snap.Clone()
	defer a.Release()
	b := snap.Clone()
	defer b.Release()

	// Perturb a heavily, then check b still matches an unperturbed clone.
	pa, err := a.CreateProcess("noise")
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.Syscall(pa, kimage.NRGetpid); err != nil {
			t.Fatalf("noise syscall: %v", err)
		}
	}
	want := driveMachine(t, snap.Clone())
	if got := driveMachine(t, b); got != want {
		t.Errorf("sibling clone was perturbed:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotConcurrentClones clones, runs and releases machines from one
// snapshot on 8 goroutines, several rounds each, so recycled granules and
// cache hierarchies pass between goroutines (run under -race by make check).
func TestSnapshotConcurrentClones(t *testing.T) {
	snap, err := NewSnapshot(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	const rounds = 3
	var wg sync.WaitGroup
	digests := make([]string, 8*rounds)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := snap.Clone()
				digests[g*rounds+r] = driveMachine(t, c)
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("concurrent clone %d diverged:\n got %s\nwant %s", i, digests[i], digests[0])
		}
	}
}

// TestDoubleReleaseNeverAliases releases a used clone twice and checks that
// the next two clones of the same snapshot share neither physical memory nor
// a cache hierarchy, and that the released machine cannot be used.
func TestDoubleReleaseNeverAliases(t *testing.T) {
	snap, err := NewSnapshot(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	k := snap.Clone()
	driveMachine(t, k)
	k.Release()
	k.Release()
	if k.Core.H != nil {
		t.Fatalf("released machine still holds its cache hierarchy")
	}
	a, b := snap.Clone(), snap.Clone()
	defer a.Release()
	defer b.Release()
	if a.Core.H == b.Core.H {
		t.Fatalf("two live machines share one cache hierarchy")
	}
	pa := uint64(a.Cfg.Frames-1) * memsim.PageSize
	a.Phys.Write8(pa, 1)
	b.Phys.Write8(pa, 2)
	if a.Phys.Read8(pa) != 1 || b.Phys.Read8(pa) != 2 {
		t.Fatalf("two live machines share physical memory: a=%d b=%d", a.Phys.Read8(pa), b.Phys.Read8(pa))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("use of a released machine's memory did not panic")
		}
	}()
	k.Phys.Read8(0)
}

// TestSnapshotRejectsUsedMachine pins the pristine-machine guard.
func TestSnapshotRejectsUsedMachine(t *testing.T) {
	k, err := New(DefaultConfig(), testImg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer k.Release()
	if _, err := k.CreateProcess("used"); err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	if _, err := k.Snapshot(); err == nil {
		t.Fatalf("Snapshot of machine with process history did not error")
	}
}
