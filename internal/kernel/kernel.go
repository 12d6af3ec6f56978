// Package kernel is the functional operating system of the reproduction: a
// monolithic kernel with processes, fork, virtual memory, a VFS-lite, pipes,
// loopback sockets, poll/select/epoll, futexes and a round-robin scheduler.
//
// Every syscall executes twice, deliberately:
//
//  1. *Functionally*, in Go — allocating real frames from the buddy
//     allocator, moving real bytes in simulated physical memory, updating
//     DSV ownership on every allocation path exactly as §6.1 prescribes.
//  2. *Temporally*, on the out-of-order core — the handler's ISA code runs
//     against the same simulated memory, so the cycle counts that the
//     performance evaluation reports come from real loops, branches, cache
//     misses and (under a defense) delayed speculative loads.
//
// The kernel is also where Perspective's software side lives: DSV
// assignment hooks on the buddy/slab/vmalloc paths, the secure slab
// allocator wiring, per-process replication of global f_op tables (the
// "unknown allocations" fix of §6.1), and ISV installation at process start.
package kernel

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/cache"
	"repro/internal/cgroup"
	"repro/internal/cpu"
	"repro/internal/dsv"
	"repro/internal/isa"
	"repro/internal/isv"
	"repro/internal/kimage"
	"repro/internal/ktrace"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sec"
	"repro/internal/slab"
	"repro/internal/vmm"
)

// Config selects kernel build options.
type Config struct {
	// Frames is the simulated physical memory size in pages.
	Frames int
	// SecureSlab selects Perspective's per-context slab allocator; false
	// gives the baseline packing allocator (§6.1).
	SecureSlab bool
}

// maxInstsPerSyscall caps one handler run (codegen-bug guard).
const maxInstsPerSyscall = 2_000_000

// timingCopyCapPages bounds the per-syscall ISA copy/zero loop, one
// page-sized pass per page, so giant mmaps and forks don't dominate
// simulation time; functional semantics always process full sizes.
const timingCopyCapPages = 64

// DefaultConfig returns the standard simulation setup: 32MB of memory,
// secure slab.
func DefaultConfig() Config {
	return Config{
		Frames:     8192,
		SecureSlab: true,
	}
}

// Stats counts kernel-level events.
type Stats struct {
	Syscalls      uint64
	PageFaults    uint64
	ContextSwitch uint64
	HandlerFaults uint64 // ISA handler runs that faulted (should be zero)
	HandlerRuns   uint64
	UnknownAccess uint64
}

// Kernel is the machine: hardware model plus OS state.
type Kernel struct {
	Cfg   Config
	Phys  *memsim.Phys
	Buddy *buddy.Allocator
	Slab  *slab.Allocator
	Cg    *cgroup.Manager
	Km    *vmm.Kmaps
	DSV   *dsv.Dir
	ISV   *isv.Dir
	Img   *kimage.Image
	Core  *cpu.Core
	Mem   *memsim.Mem
	Trace *ktrace.Recorder

	// OnProcessCreate, when set, observes every new task — the harness
	// uses it to install per-container ISVs and enable tracing at process
	// start (§5.4: views are installed at application startup).
	OnProcessCreate func(*Task)

	tasks   map[int]*Task
	runq    []*Task
	current *Task
	nextPID int

	xusbBufVA  uint64 // the CVE gadget's legitimate array
	lastFault  FaultInfo
	futexWaits map[uint64][]*Task
	listeners  map[uint64]listener // port -> listening socket

	// Reusable scratch for the syscall hot path (read/write/send/recv data
	// staging and poll-scan file-pointer collection): the open-loop traffic
	// engine drives 10⁶+ requests per cell, so these paths must not allocate
	// per call. A Kernel is single-threaded by construction and snapshot
	// clones are built as fresh structs (scratch starts nil per clone), so
	// the buffers are never shared across goroutines.
	xferBuf []byte
	pollBuf []uint64

	Stats Stats
}

// New boots a machine over the given image.
func New(cfg Config, img *kimage.Image) (*Kernel, error) {
	phys := memsim.NewPhys(cfg.Frames)
	bud := buddy.New(uint64(cfg.Frames))
	k := &Kernel{
		Cfg:        cfg,
		Phys:       phys,
		Buddy:      bud,
		Slab:       slab.New(bud, cfg.SecureSlab),
		Cg:         cgroup.NewManager(),
		Km:         vmm.NewKmaps(phys.Bytes()),
		DSV:        dsv.NewDir(),
		ISV:        isv.NewDir(),
		Img:        img,
		tasks:      make(map[int]*Task),
		nextPID:    1,
		futexWaits: make(map[uint64][]*Task),
		listeners:  make(map[uint64]listener),
	}
	k.wireHardware()

	if err := k.boot(); err != nil {
		return nil, err
	}
	return k, nil
}

// wireHardware attaches the per-machine hardware model — memory view, core,
// tracer — and the slab→DSV observation hooks. New and Snapshot.Clone share
// it: a machine's core, cache hierarchy, predictors and trace recorder are
// always built in their architectural reset state (boot never runs the
// core, so a freshly constructed set is exactly the post-boot state a
// snapshot captures).
func (k *Kernel) wireHardware() {
	k.Mem = &memsim.Mem{Phys: k.Phys, Tr: &memsim.FixedTranslator{Size: k.Phys.Bytes(), AllowKernel: true}}
	h := cache.NewDefaultHierarchy()
	k.Core = cpu.New(cpu.DefaultConfig(), &codeSource{k: k}, k.Mem, h, predict.New())
	// Attach the pre-decoded program: the text is immutable after link, so
	// the image decodes it once for every machine (see kimage/decoded.go).
	k.Core.SetProgram(k.Img.Decoded())
	k.Trace = ktrace.New(k.Img, func() sec.Ctx { return k.Core.Ctx() })
	k.Core.Tracer = k.Trace

	// Slab pages join/leave the owning context's DSV as they move.
	k.Slab.OnPageAlloc = func(pfn uint64, ctx sec.Ctx) {
		k.DSV.Assign(ctx, memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
	}
	k.Slab.OnPageReturn = func(pfn uint64, ctx sec.Ctx) {
		k.DSV.Revoke(ctx, memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
	}
}

// Release hands the machine's host memory to later machines: the physical
// store's private granules (memsim) and the cache hierarchy (internal/cache).
// Call only when completely done with the machine. A second Release is a
// no-op, and any later use of the machine's memory or caches panics rather
// than reaching another machine's state.
func (k *Kernel) Release() {
	if k.Core.H == nil {
		return
	}
	k.Phys.Release()
	k.Core.H.Release()
	k.Core.H = nil
}

// boot reserves low memory, lays out the kernel globals, and seeds the
// dispatch tables.
func (k *Kernel) boot() error {
	// Frames 0..1: null guard; 2..5: globals (kimage.GlobalsPA convention).
	for i := 0; i < 2+kimage.GlobalsFrames; i++ {
		pfn, ok := k.Buddy.AllocPages(0, sec.CtxKernel)
		if !ok || pfn != uint64(i) {
			return fmt.Errorf("kernel: boot reservation got pfn %d, want %d", pfn, i)
		}
	}
	g := kimage.GlobalsVA()
	k.writeKernel(g+kimage.OffColdFlag, 0)
	k.writeKernel(g+kimage.OffGenLimit, 0)
	k.writeKernel(g+kimage.OffGenTable, g+kimage.OffGlobalStats)
	k.writeKernel(g+kimage.OffRunqueue, 0)

	// The XUSB driver's real array: one kernel frame, bound 256 bytes.
	pfn, ok := k.Buddy.AllocPages(0, sec.CtxKernel)
	if !ok {
		return fmt.Errorf("kernel: no frame for xusb buffer")
	}
	k.xusbBufVA = memsim.DirectMapVA(pfn * memsim.PageSize)
	k.writeKernel(g+kimage.OffXUSBLimit, 256)
	k.writeKernel(g+kimage.OffXUSBTable, k.xusbBufVA)

	// Futex hash bucket frame.
	pfn, ok = k.Buddy.AllocPages(0, sec.CtxKernel)
	if !ok {
		return fmt.Errorf("kernel: no frame for futex hash")
	}
	k.writeKernel(g+kimage.OffFutexHash, memsim.DirectMapVA(pfn*memsim.PageSize))

	// Driver dispatch table (the indirect-call targets of sys_ioctl).
	for i, f := range k.Img.IoctlTargets() {
		if i >= 16 {
			break
		}
		k.writeKernel(g+kimage.OffIoctlTable+uint64(8*i), f.VA)
	}

	// victim_fn2's legitimate indirect target.
	k.writeKernel(g+kimage.OffVictimHook, k.Img.MustFunc("kmalloc_fastpath").VA)

	// Globals belong to the kernel context's DSV (not to any user DSV).
	k.DSV.Assign(sec.CtxKernel, g, kimage.GlobalsFrames*memsim.PageSize)
	k.DSV.Assign(sec.CtxKernel, k.xusbBufVA, memsim.PageSize)
	return nil
}

// writeKernel stores a 64-bit value at a kernel direct-map VA.
func (k *Kernel) writeKernel(va, val uint64) {
	pa, ok := memsim.DirectMapPA(va, k.Phys.Bytes())
	if !ok {
		panic(fmt.Sprintf("kernel: writeKernel outside direct map: %#x", va))
	}
	k.Phys.Write64(pa, val)
}

// readKernel loads a 64-bit value from a kernel direct-map VA.
func (k *Kernel) readKernel(va uint64) uint64 {
	pa, ok := memsim.DirectMapPA(va, k.Phys.Bytes())
	if !ok {
		panic(fmt.Sprintf("kernel: readKernel outside direct map: %#x", va))
	}
	return k.Phys.Read64(pa)
}

// XUSBTableVA exposes the CVE gadget's array base (attack PoCs compute
// out-of-bounds indices relative to it).
func (k *Kernel) XUSBTableVA() uint64 { return k.xusbBufVA }

// GenTableVA exposes the generated census gadgets' shared array base (the
// boot-time value of the OffGenTable global).
func (k *Kernel) GenTableVA() uint64 { return kimage.GlobalsVA() + kimage.OffGlobalStats }

// SetGenLimit sets the generated census gadgets' shared bounds global. Boot
// leaves it at zero (every index architecturally out of bounds); the
// relative-security harness raises it so in-bounds calls can mistrain the
// bounds checks exactly like the CVE gadget's real limit does.
func (k *Kernel) SetGenLimit(limit uint64) {
	k.writeKernel(kimage.GlobalsVA()+kimage.OffGenLimit, limit)
}

// AttachObs wires an observation-trace recorder into every channel source
// on this machine: the core (wrong-path loads, transient store buffer and
// port events, squash timings), the predictor (mispredict windows) and the
// cache hierarchy (fills/evictions). nil detaches. Machines without a
// recorder pay only nil checks, so this is strictly opt-in per machine.
func (k *Kernel) AttachObs(r *obs.Recorder) {
	k.Core.Obs = r
	k.Core.BP.Obs = r
	k.Core.H.AttachObs(r)
}

// SetSecretRef publishes a secret reference in the kernel global that
// victim_fn1 loads (Figure 4.2 setup).
func (k *Kernel) SetSecretRef(va uint64) {
	k.writeKernel(kimage.GlobalsVA()+kimage.OffSecretRef, va)
}

// FaultInfo records the most recent handler fault (debugging aid).
type FaultInfo struct {
	PC, VA, Entry uint64
}

// LastFault returns the most recent handler fault record.
func (k *Kernel) LastFault() FaultInfo { return k.lastFault }

// Current returns the running task.
func (k *Kernel) Current() *Task { return k.current }

// switchTo makes t the current task: swaps the translator, the ASID, and —
// crucially for the attacks — does NOT flush any predictor state.
func (k *Kernel) switchTo(t *Task) {
	if k.current == t {
		// Re-assert the hardware context: PoC code may have run the core
		// under another ASID in between.
		k.Mem.SetTranslator(t.AS)
		k.Core.SetCtx(t.Ctx())
		return
	}
	prev := k.current
	k.current = t
	k.Mem.SetTranslator(t.AS)
	k.Core.SetCtx(t.Ctx())
	if prev != nil {
		k.Stats.ContextSwitch++
		// Run the context-switch path on the core.
		k.marshalCtx(t, ctxMarshal{src: prev.TaskVA(), dst: t.TaskVA()})
		k.runKernelFunc(t, "sched_switch")
	}
}

// runKernelFunc enters the kernel and executes a named kernel function on
// the core under the current task's context (also the PoC hook for running
// an arbitrary victim function, e.g. victim_fn1).
func (k *Kernel) runKernelFunc(t *Task, name string) cpu.RunResult {
	f := k.Img.MustFunc(name)
	return k.runKernelVA(t, f.VA)
}

func (k *Kernel) runKernelVA(t *Task, va uint64) cpu.RunResult {
	// Under KPTI (KernelCrossPenalty > 0) the kernel entry switches page
	// tables, so the host-side translation cache must not carry memoized
	// user walks across the boundary. The flush is pure host bookkeeping —
	// the KPTI cycle cost itself is charged by EnterKernel/ExitKernel.
	kpti := k.Core.Policy.KernelCrossPenalty() > 0
	if kpti {
		t.AS.FlushTLB()
	}
	t.AS.InKernel = true
	k.Mem.SetKernelMode(true)
	k.Core.EnterKernel()
	k.Core.Regs[10] = t.TaskVA()
	k.Core.Regs[11] = t.TaskVA() + kimage.TaskCtxOff
	if f := k.Img.FuncAt(va); f != nil {
		k.Trace.NoteEntry(t.Ctx(), f)
	}
	res := k.Core.Run(va, maxInstsPerSyscall)
	k.Stats.HandlerRuns++
	if res.Fault || res.Truncated {
		k.Stats.HandlerFaults++
		k.lastFault = FaultInfo{PC: res.FaultPC, VA: res.FaultVA, Entry: va}
	}
	k.Core.ExitKernel()
	t.AS.InKernel = false
	k.Mem.SetKernelMode(false)
	if kpti {
		t.AS.FlushTLB()
	}
	return res
}

// RunVictimCall is the PoC entry point used by the attack framework: the
// given task performs a kernel entry that executes the named function (as
// if on its syscall path).
func (k *Kernel) RunVictimCall(t *Task, fn string, args ...uint64) cpu.RunResult {
	k.switchTo(t)
	for i, a := range args {
		if i < 6 {
			k.Core.Regs[1+i] = a
		}
	}
	return k.runKernelFunc(t, fn)
}

// KernelBuffer allocates a physically contiguous kernel buffer (2^order
// pages) owned by the task's context and adds it to its DSV — the shape of
// a pipe or socket ring owned by the process. Attack PoCs use it as a
// victim-owned transmit region.
func (k *Kernel) KernelBuffer(t *Task, order int) (uint64, error) {
	pfn, ok := k.Buddy.AllocPages(order, t.Ctx())
	if !ok {
		return 0, fmt.Errorf("kernel: OOM for kernel buffer")
	}
	n := uint64(1) << uint(order)
	for i := uint64(0); i < n; i++ {
		k.Phys.ZeroFrame(pfn + i)
	}
	k.Cg.Charge(t.Ctx(), n)
	va := memsim.DirectMapVA(pfn * memsim.PageSize)
	k.DSV.Assign(t.Ctx(), va, n*memsim.PageSize)
	return va, nil
}

// codeSource composes the kernel image with the current task's user code
// segment.
type codeSource struct{ k *Kernel }

// FetchInst implements cpu.CodeSource.
func (cs *codeSource) FetchInst(va uint64) *isaInst {
	if in := cs.k.Img.InstAt(va); in != nil {
		return in
	}
	if t := cs.k.current; t != nil && t.userCode != nil {
		return t.userCode[va]
	}
	return nil
}

// LoadUserCode installs instructions at a user VA for t (the attacker's
// binary). Local-label targets are linked against base.
func (k *Kernel) LoadUserCode(t *Task, base uint64, insts []isaInst) {
	if t.userCode == nil {
		t.userCode = make(map[uint64]*isaInst)
	}
	for i, in := range insts {
		if in.Sym == isaLocalSym {
			in.Target = base + in.Target*4
			in.Sym = ""
		}
		in := in
		t.userCode[base+uint64(i)*4] = &in
	}
}

// RunUser executes the task's user code on the core in user mode — how an
// attacker process trains predictors from userspace.
func (k *Kernel) RunUser(t *Task, entry uint64, maxInsts int) cpu.RunResult {
	k.switchTo(t)
	k.Core.Regs[10] = 0
	k.Core.Regs[11] = 0
	return k.Core.Run(entry, maxInsts)
}

// isaInst aliases keep the codeSource declarations compact.
type isaInst = isa.Inst

const isaLocalSym = isa.LocalSym
