package kernel

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/kimage"
)

// FuzzBBInvalidate attacks the decoded program's invalidation protocol: two
// kernels boot over the SAME image — one with block dispatch, one with
// single-op dispatch — and the input script interleaves live text mutation
// (PatchInst / SetInstValid on syscall-path functions) with syscalls driven
// identically on both machines. Single-op dispatch fetches and decodes the
// patched words directly, so if block dispatch ever runs a stale decoded
// block after a version bump, the two machines' results, instruction
// counts, clocks, or state digests split. Each iteration undoes its patches, so corpus entries
// replay independently of each other.

// fuzzInvImg is the dedicated mutable image (never testImg: other tests in
// the package assume that one stays as linked).
var fuzzInvImg *kimage.Image

func fuzzInvImage() *kimage.Image {
	if fuzzInvImg == nil {
		fuzzInvImg = kimage.MustBuild(kimage.TestSpec())
	}
	return fuzzInvImg
}

// fuzzPatchWord synthesizes a linked, in-function replacement instruction.
// The set stays store-free — control and register effects are what the
// decoded-block cache must track; identical memory writes on both machines
// would hold even with a broken cache.
func fuzzPatchWord(sel byte, f *kimage.Func) isa.Inst {
	switch sel % 6 {
	case 0:
		return isa.Inst{Op: isa.OpNop}
	case 1:
		return isa.Inst{Op: isa.OpALU, AK: isa.AMovImm, Rd: isa.R1, Imm: int64(sel)}
	case 2:
		return isa.Inst{Op: isa.OpALU, AK: isa.AAddImm, Rd: isa.R3, Rs1: isa.R3, Imm: 1}
	case 3:
		return isa.Inst{Op: isa.OpFence}
	case 4:
		return isa.Inst{Op: isa.OpHalt}
	default:
		return isa.Inst{Op: isa.OpJmp,
			Target: f.VA + uint64(int(sel>>3)%len(f.Code))*isa.InstBytes}
	}
}

func FuzzBBInvalidate(f *testing.F) {
	// Seed shapes: pure syscalls, patch-then-call, unmap-then-call,
	// patch/heal churn, and a halt patched into the hottest entry.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{4, 0, 1, 0, 0, 0, 4, 1, 2, 1, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 5, 1, 1, 1, 0, 0})
	f.Add([]byte{4, 0, 5, 0, 0, 0, 4, 0, 11, 0, 0, 0, 4, 2, 17, 2, 0, 0})
	f.Add([]byte{4, 0, 4, 0, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 192 {
			script = script[:192]
		}
		img := fuzzInvImage()
		var fns []*kimage.Func
		for _, nr := range []int{kimage.NRGetpid, kimage.NRRead, kimage.NRWrite, kimage.NRStat} {
			if fn := img.SyscallEntry(nr); fn != nil {
				fns = append(fns, fn)
			}
		}
		if len(fns) == 0 {
			t.Fatal("no syscall entries in image")
		}

		// Undo log: restore every touched slot (reverse order) when the
		// iteration ends, however it ends.
		base, flat, valid := img.Text()
		type slotRec struct {
			va    uint64
			in    isa.Inst
			valid bool
		}
		var undo []slotRec
		record := func(va uint64) {
			idx := int(va-base) / isa.InstBytes
			undo = append(undo, slotRec{va, flat[idx], valid[idx]})
		}
		defer func() {
			for i := len(undo) - 1; i >= 0; i-- {
				r := undo[i]
				if err := img.PatchInst(r.va, r.in); err != nil {
					t.Fatalf("restore %#x: %v", r.va, err)
				}
				if !r.valid {
					if err := img.SetInstValid(r.va, false); err != nil {
						t.Fatalf("restore valid %#x: %v", r.va, err)
					}
				}
			}
		}()

		cfg := DefaultConfig()
		cfg.MaxInstsPerSyscall = 50_000 // patched self-loops truncate fast
		boot := func(threaded bool) (*Kernel, *Task, uint64, uint64) {
			k, err := New(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			if !threaded {
				k.Core.SetThreadedSource(nil)
			}
			p, err := k.CreateProcess("fuzz")
			if err != nil {
				t.Fatal(err)
			}
			buf, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := k.Syscall(p, kimage.NROpen)
			if err != nil {
				t.Fatal(err)
			}
			return k, p, buf, fd
		}
		kf, pf, buff, fdf := boot(true)
		defer kf.Release()
		ki, pi, bufi, fdi := boot(false)
		defer ki.Release()
		if buff != bufi || fdf != fdi {
			t.Fatalf("setup skew: buf %#x/%#x fd %d/%d", buff, bufi, fdf, fdi)
		}

		sys := func(step int, nr int, args ...uint64) {
			rf, ef := kf.Syscall(pf, nr, args...)
			ri, ei := ki.Syscall(pi, nr, args...)
			if rf != ri || (ef == nil) != (ei == nil) {
				t.Fatalf("step %d sys %d: block (%d, %v) vs single-op (%d, %v)",
					step, nr, rf, ef, ri, ei)
			}
			if fi, ii := kf.Core.Stats.Insts, ki.Core.Stats.Insts; fi != ii {
				t.Fatalf("step %d sys %d: inst counts split: block %d, single-op %d",
					step, nr, fi, ii)
			}
			if fn, in := kf.Core.Now(), ki.Core.Now(); math.Float64bits(fn) != math.Float64bits(in) {
				t.Fatalf("step %d sys %d: clocks split: block %v, single-op %v",
					step, nr, fn, in)
			}
		}

		didSys := false
		for i := 0; i+3 <= len(script); i += 3 {
			b0, b1, b2 := script[i], script[i+1], script[i+2]
			switch b0 % 6 {
			case 0:
				sys(i, kimage.NRGetpid)
				didSys = true
			case 1:
				kf.Rewind(pf, int(fdf))
				ki.Rewind(pi, int(fdi))
				sys(i, kimage.NRRead, fdf, buff, 256)
				didSys = true
			case 2:
				kf.Rewind(pf, int(fdf))
				ki.Rewind(pi, int(fdi))
				sys(i, kimage.NRWrite, fdf, buff, 128)
				didSys = true
			case 3:
				sys(i, kimage.NRStat, 0, buff)
				didSys = true
			case 4: // patch one instruction word
				fn := fns[int(b1)%len(fns)]
				va := fn.VA + uint64(int(b2)%len(fn.Code))*isa.InstBytes
				record(va)
				if err := img.PatchInst(va, fuzzPatchWord(b1^b2, fn)); err != nil {
					t.Fatalf("patch %#x: %v", va, err)
				}
			case 5: // unmap / remap one slot
				fn := fns[int(b1)%len(fns)]
				va := fn.VA + uint64(int(b2)%len(fn.Code))*isa.InstBytes
				record(va)
				if err := img.SetInstValid(va, b2&1 == 1); err != nil {
					t.Fatalf("setvalid %#x: %v", va, err)
				}
			}
		}

		if fd, id := kf.StateDigest(), ki.StateDigest(); fd != id {
			t.Fatalf("state digests split: block %#x, single-op %#x", fd, id)
		}
		if kf.Stats.HandlerFaults != ki.Stats.HandlerFaults {
			t.Fatalf("handler faults split: block %d, single-op %d",
				kf.Stats.HandlerFaults, ki.Stats.HandlerFaults)
		}
		if didSys && kf.Core.Stats.ThreadedInsts == 0 {
			t.Error("block dispatch never ran — differential is vacuous")
		}
		if ki.Core.Stats.ThreadedInsts != 0 {
			t.Error("single-op kernel dispatched decoded blocks")
		}
	})
}
