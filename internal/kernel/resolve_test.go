package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/kimage"
	"repro/internal/memsim"
)

// TestResolveLookasideUnderSyscallChurn drives the full kernel syscall
// surface — mmap/munmap/brk growth, fork and exit, context-heavy getpid
// loops — across two processes, and after every batch checks Mem.Resolve,
// direct-map fast path included, against the current task's own
// translation. It samples user, direct-map, vmalloc and per-cpu addresses,
// live and freed, and applies the straddle rule and the privilege rule in
// both modes, as the checked walk does.
func TestResolveLookasideUnderSyscallChurn(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "churn-a")
	q := mustProc(t, k, "churn-b")
	// No kernel path maps a per-cpu page; map one so that window has a live
	// translation as well as unmapped ones.
	k.Km.MapPerCPU(memsim.PerCPUBase, p.taskPFN)
	rng := rand.New(rand.NewSource(7))

	var regions, freed []uint64 // live mmaps; munmapped regions and exited children's kernel stacks
	sample := func(cur *Task) []uint64 {
		last := k.Phys.Bytes() - memsim.PageSize
		vas := []uint64{
			memsim.DirectMapVA(uint64(rng.Intn(k.Phys.Frames())) * memsim.PageSize),
			memsim.DirectMapVA(last),
			memsim.DirectMapVA(last + memsim.PageSize),
			cur.kstackVA + uint64(rng.Intn(4))*memsim.PageSize,
			cur.kstackVA + 4*memsim.PageSize, // guard page
			memsim.PerCPUBase,
			memsim.PerCPUBase + memsim.PageSize,
			0, // never mapped
		}
		if pages := cur.AS.MappedUserPages(); len(pages) > 0 {
			vas = append(vas, pages[rng.Intn(len(pages))].VA)
		}
		if len(regions) > 0 {
			vas = append(vas, regions[rng.Intn(len(regions))])
		}
		if len(freed) > 0 {
			vas = append(vas, freed[rng.Intn(len(freed))])
		}
		return vas
	}
	check := func(batch int) {
		cur := k.Current()
		if k.Mem.Tr != memsim.Translator(cur.AS) {
			t.Fatalf("batch %d: Mem translates through %T, not the current task's address space", batch, k.Mem.Tr)
		}
		if err := cur.AS.VerifyAgainstWalk(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for _, page := range sample(cur) {
			for _, off := range []uint64{uint64(rng.Intn(memsim.PageSize/8)) * 8, memsim.PageSize - 4} {
				va := page + off
				for _, size := range []uint8{1, 8} {
					for _, kern := range []bool{false, true} {
						cur.AS.InKernel = kern
						k.Mem.SetKernelMode(kern)
						pa, ok := k.Mem.Resolve(va, size)
						wantPA, wantOK := cur.AS.Translate(va)
						if memsim.PageBase(va) != memsim.PageBase(va+uint64(size)-1) || (memsim.IsKernel(va) && !kern) {
							wantPA, wantOK = 0, false
						}
						if pa != wantPA || ok != wantOK {
							t.Fatalf("batch %d: Resolve(%#x, %d) in kernel mode %v = (%#x, %v), translator says (%#x, %v)",
								batch, va, size, kern, pa, ok, wantPA, wantOK)
						}
					}
				}
			}
		}
		cur.AS.InKernel = false
		k.Mem.SetKernelMode(false)
	}

	for batch := 0; batch < 40; batch++ {
		tk := p
		if rng.Intn(2) == 1 {
			tk = q
		}
		switch rng.Intn(6) {
		case 0:
			va, err := k.Syscall(tk, kimage.NRMmap, 4096, 1)
			if err == nil {
				regions = append(regions, va)
			}
		case 1:
			if len(regions) > 0 {
				i := rng.Intn(len(regions))
				k.Syscall(tk, kimage.NRMunmap, regions[i], 4096)
				freed = append(freed, regions[i])
				regions = append(regions[:i], regions[i+1:]...)
			}
		case 2:
			k.Syscall(tk, kimage.NRBrk, 4096)
		case 3:
			pid, err := k.Syscall(tk, kimage.NRFork)
			if err == nil {
				freed = append(freed, k.tasks[int(pid)].kstackVA)
				k.ExitPID(int(pid))
			}
		default:
			for i := 0; i < 4; i++ {
				k.Syscall(tk, kimage.NRGetpid)
			}
		}
		check(batch)
	}
}
