package kernel

import (
	"fmt"
	"sort"

	"repro/internal/cgroup"
	"repro/internal/isv"
	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/sec"
	"repro/internal/vmm"
)

// TaskState is a task's scheduler state.
type TaskState int

const (
	// TaskRunnable tasks are eligible for the CPU.
	TaskRunnable TaskState = iota
	// TaskBlocked tasks wait on a futex or pipe.
	TaskBlocked
	// TaskDead tasks have exited.
	TaskDead
)

// Task is one process (or thread, if it shares an address space).
type Task struct {
	PID   int
	Group *cgroup.Group
	AS    *vmm.AddrSpace
	State TaskState

	taskPFN uint64 // task-struct frame
	fdtPFN  uint64 // fd-table frame

	files  map[int]*File
	nextFD int

	// reuseFDs switches the task to POSIX lowest-free descriptor
	// allocation (see EnableFDReuse); freeFDs holds closed descriptors
	// sorted descending so the lowest pops from the tail.
	reuseFDs bool
	freeFDs  []int

	kstackVA  uint64 // vmalloc'd kernel stack base
	replicaVA uint64 // per-process replica of hot globals
	fopsVA    uint64 // per-process f_op tables
	pollVA    uint64 // per-process poll array page

	// sharesAS marks threads (clone): teardown must not free shared state.
	sharesAS bool

	// userCode holds the task's user-mode instructions (attack PoCs load
	// predictor-training stubs here). Values are pointers so the fetch path
	// hands out stable *Inst without a per-fetch copy.
	userCode map[uint64]*isaInst

	// seccomp, when non-nil, is the task's allowed-syscall set — classic
	// system call interposition (§2.3), the technique whose allow-list
	// methodology ISVs generalize to speculative execution.
	seccomp map[int]bool
}

// SetSeccomp installs a conventional syscall allow-list for the task.
// Unlike ISVs (which only constrain *speculation* and therefore cannot
// break the application, §5.3), a blocked syscall here fails
// architecturally with EPERM.
func (k *Kernel) SetSeccomp(t *Task, allowed []int) {
	t.seccomp = make(map[int]bool, len(allowed))
	for _, nr := range allowed {
		t.seccomp[nr] = true
	}
}

// Ctx returns the task's security context (its cgroup ID).
func (t *Task) Ctx() sec.Ctx { return t.Group.ID }

// NextFD exposes the task's high-water descriptor number (tests assert the
// descriptor space stays bounded under connection churn with reuse on).
func (t *Task) NextFD() int { return t.nextFD }

// TaskVA returns the direct-map VA of the task struct.
func (t *Task) TaskVA() uint64 { return memsim.DirectMapVA(t.taskPFN * memsim.PageSize) }

func (t *Task) fdtVA() uint64 { return memsim.DirectMapVA(t.fdtPFN * memsim.PageSize) }

// ReplicaVA exposes the per-process replica page (tests).
func (t *Task) ReplicaVA() uint64 { return t.replicaVA }

// sortedFDs returns the task's open descriptors in ascending order — fork
// and exit iterate descriptors while touching kernel memory, and a map
// range would vary that sequence (and the resulting timing) between runs.
func (t *Task) sortedFDs() []int {
	fds := make([]int, 0, len(t.files))
	for fd := range t.files {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	return fds
}

// CreateProcess boots a new process in the named container (cgroup); a new
// cgroup is created if the name is new. Perspective per-process setup
// happens here: DSV population for the task's kernel allocations, replica
// pages for global tables, and (by the harness) ISV installation.
func (k *Kernel) CreateProcess(container string) (*Task, error) {
	grp, ok := k.Cg.ByName(container)
	if !ok {
		var err error
		grp, err = k.Cg.Create(container, nil)
		if err != nil {
			return nil, fmt.Errorf("creating cgroup %q: %w", container, err)
		}
	}
	ctx := grp.ID
	as, err := vmm.NewAddrSpace(k.Phys, k.Buddy, k.Km, ctx)
	if err != nil {
		return nil, err
	}
	t := &Task{
		PID:    k.nextPID,
		Group:  grp,
		AS:     as,
		files:  make(map[int]*File),
		nextFD: 3,
	}
	k.nextPID++

	alloc := func() (uint64, error) {
		pfn, ok := k.Buddy.AllocPages(0, ctx)
		if !ok {
			return 0, fmt.Errorf("kernel: out of memory creating pid %d", t.PID)
		}
		k.Phys.ZeroFrame(pfn)
		k.Cg.Charge(ctx, 1)
		k.DSV.Assign(ctx, memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
		return pfn, nil
	}
	if t.taskPFN, err = alloc(); err != nil {
		return nil, err
	}
	if t.fdtPFN, err = alloc(); err != nil {
		return nil, err
	}
	// Kernel stack: 4 pages from vmalloc, tracked and added to the process
	// DSV (§6.1: "the per-process kernel stack is allocated from vmalloc
	// during fork. Perspective tracks it and adds it to the process DSV").
	var stackPFNs []uint64
	for i := 0; i < 4; i++ {
		pfn, err := alloc()
		if err != nil {
			return nil, err
		}
		stackPFNs = append(stackPFNs, pfn)
	}
	t.kstackVA = k.Km.Vmalloc(stackPFNs)
	k.DSV.Assign(ctx, t.kstackVA, 4*memsim.PageSize)

	// Replica page: per-process copies of hot globals, so generated service
	// code reads process-owned data instead of kernel globals.
	replicaPFN, err := alloc()
	if err != nil {
		return nil, err
	}
	t.replicaVA = memsim.DirectMapVA(replicaPFN * memsim.PageSize)

	// Poll array page: where poll/select render their fd lists.
	pollPFN, err := alloc()
	if err != nil {
		return nil, err
	}
	t.pollVA = memsim.DirectMapVA(pollPFN * memsim.PageSize)

	// File-operation tables: replicated per process, so they join the
	// process DSV instead of staying shared kernel globals that Perspective
	// would block as unknown allocations (§6.1).
	fopsPFN, err := alloc()
	if err != nil {
		return nil, err
	}
	t.fopsVA = memsim.DirectMapVA(fopsPFN * memsim.PageSize)
	k.writeFOpsTables(t.fopsVA)

	// Task-struct fields the ISA handlers load.
	tv := t.TaskVA()
	k.writeKernel(tv+kimage.TaskFilesOff, t.fdtVA())
	k.writeKernel(tv+kimage.TaskPIDOff, uint64(t.PID))
	k.writeKernel(tv+kimage.TaskUIDOff, 1000+uint64(ctx))
	k.writeKernel(t.fdtVA()+kimage.FDTMaxOff, 64)
	k.writeKernel(tv+kimage.TaskCtxOff+kimage.CtxReplica, t.replicaVA)

	k.tasks[t.PID] = t
	k.runq = append(k.runq, t)
	if k.current == nil {
		k.current = t
		k.Mem.SetTranslator(t.AS, t.AS.TranslationEpoch())
		k.Core.SetCtx(ctx)
	}
	if k.OnProcessCreate != nil {
		k.OnProcessCreate(t)
	}
	return t, nil
}

// writeFOpsTables lays out the three f_op tables (regular, pipe, socket) at
// base.
func (k *Kernel) writeFOpsTables(base uint64) {
	img := k.Img
	reg := base + 0*kimage.FOpTableSz
	k.writeKernel(reg+kimage.FOpReadOff, img.MustFunc("generic_file_read").VA)
	k.writeKernel(reg+kimage.FOpWriteOff, img.MustFunc("generic_file_write").VA)
	pipe := base + 1*kimage.FOpTableSz
	k.writeKernel(pipe+kimage.FOpReadOff, img.MustFunc("pipe_read").VA)
	k.writeKernel(pipe+kimage.FOpWriteOff, img.MustFunc("pipe_write").VA)
	sock := base + 2*kimage.FOpTableSz
	k.writeKernel(sock+kimage.FOpReadOff, img.MustFunc("sock_recv_impl").VA)
	k.writeKernel(sock+kimage.FOpWriteOff, img.MustFunc("sock_send_impl").VA)
}

func (t *Task) fopsFor(kind FileKind) uint64 {
	switch kind {
	case FilePipe:
		return t.fopsVA + 1*kimage.FOpTableSz
	case FileSocket:
		return t.fopsVA + 2*kimage.FOpTableSz
	default:
		return t.fopsVA
	}
}

// InstallISV binds an instruction speculation view to the task's context.
func (k *Kernel) InstallISV(t *Task, v *isv.View) { k.ISV.Install(t.Ctx(), v) }

// Tasks returns all live tasks.
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.tasks))
	for pid := 1; pid < k.nextPID; pid++ {
		if t, ok := k.tasks[pid]; ok {
			out = append(out, t)
		}
	}
	return out
}

// allocUserPage allocates, zeroes, maps and DSV-registers one user page.
func (k *Kernel) allocUserPage(t *Task, va uint64) (uint64, error) {
	return k.allocUserPageFill(t, va, true)
}

// allocUserPageFill is allocUserPage with the zeroing optional: fork's COW
// copy overwrites the whole frame immediately after mapping, so zeroing it
// first is dead host work with no simulated effect (nothing reads the frame
// between map and copy).
func (k *Kernel) allocUserPageFill(t *Task, va uint64, zero bool) (uint64, error) {
	pfn, ok := k.Buddy.AllocPages(0, t.Ctx())
	if !ok {
		return 0, fmt.Errorf("kernel: OOM mapping %#x", va)
	}
	if zero {
		k.Phys.ZeroFrame(pfn)
	}
	k.Cg.Charge(t.Ctx(), 1)
	if err := t.AS.MapPage(va, pfn); err != nil {
		return 0, err
	}
	// Both views of the frame join the DSV: the user VA and the direct map
	// alias (the kernel touches user data through either).
	k.DSV.Assign(t.Ctx(), va&^0xfff, memsim.PageSize)
	k.DSV.Assign(t.Ctx(), memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
	return pfn, nil
}

func (k *Kernel) freeUserPage(t *Task, va uint64) {
	pfn, ok := t.AS.UnmapPage(va)
	if !ok {
		return
	}
	// DSVs are per cgroup, and sibling processes in the same cgroup reuse
	// the same user VAs over different frames (fork children especially).
	// The user-VA view entry may only be revoked when no sibling still
	// maps that VA; the direct-map entry is frame-specific and always
	// revoked.
	if !k.ctxMapsVA(t, va&^0xfff) {
		k.DSV.Revoke(t.Ctx(), va&^0xfff, memsim.PageSize)
	}
	k.DSV.Revoke(t.Ctx(), memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
	k.Buddy.Free(pfn)
	k.Cg.Uncharge(t.Ctx(), 1)
}

// ctxMapsVA reports whether any other live task in t's cgroup still maps va.
func (k *Kernel) ctxMapsVA(t *Task, va uint64) bool {
	for _, o := range k.tasks {
		if o == t || o.State == TaskDead || o.Ctx() != t.Ctx() || o.AS == t.AS {
			continue
		}
		if _, ok := o.AS.Lookup(va); ok {
			return true
		}
	}
	return false
}

// ensureUserPages fault-populates [va, va+n) if the task owns a region
// there, counting page faults.
func (k *Kernel) ensureUserPages(t *Task, va, n uint64) error {
	for p := va &^ 0xfff; p < va+n; p += memsim.PageSize {
		if _, ok := t.AS.Lookup(p); ok {
			continue
		}
		if _, err := k.allocUserPage(t, p); err != nil {
			return err
		}
		k.Stats.PageFaults++
	}
	return nil
}

// CopyToUser writes bytes into the task's user memory (fault-populating).
// The copy translates once per page, not once per byte: within a page the
// physical bytes are contiguous.
func (k *Kernel) CopyToUser(t *Task, va uint64, data []byte) error {
	if err := k.ensureUserPages(t, va, uint64(len(data))); err != nil {
		return err
	}
	for len(data) > 0 {
		pa, ok := t.AS.Translate(va)
		if !ok {
			return fmt.Errorf("kernel: CopyToUser unmapped %#x", va)
		}
		n := memsim.PageSize - (va & (memsim.PageSize - 1))
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		k.Phys.CopyIn(pa, data[:n])
		va += n
		data = data[n:]
	}
	return nil
}

// xfer returns the kernel's reusable transfer buffer sized to n bytes.
// Callers must fully consume the result before the next syscall path runs —
// every user of the buffer copies out of it synchronously, which is what
// keeps the read/write/send/recv drive path allocation-free.
func (k *Kernel) xfer(n uint64) []byte {
	if uint64(cap(k.xferBuf)) < n {
		k.xferBuf = make([]byte, n)
	}
	return k.xferBuf[:n]
}

// readUserXfer is ReadUser into the reusable transfer buffer — the syscall
// hot path's variant. The returned slice aliases kernel scratch and is only
// valid until the next xfer call.
func (k *Kernel) readUserXfer(t *Task, va uint64, n int) ([]byte, error) {
	out := k.xfer(uint64(n))
	if err := k.readUserInto(t, va, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (k *Kernel) readUserInto(t *Task, va uint64, out []byte) error {
	n := len(out)
	for off := uint64(0); off < uint64(n); {
		pa, ok := t.AS.Translate(va + off)
		if !ok {
			return fmt.Errorf("kernel: ReadUser unmapped %#x", va+off)
		}
		chunk := memsim.PageSize - ((va + off) & (memsim.PageSize - 1))
		if rem := uint64(n) - off; chunk > rem {
			chunk = rem
		}
		k.Phys.CopyOut(pa, out[off:off+chunk])
		off += chunk
	}
	return nil
}

// ReadUser reads bytes from the task's user memory.
func (k *Kernel) ReadUser(t *Task, va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := k.readUserInto(t, va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Exit tears a task down: close files, free user frames and page tables,
// revoke every DSV entry, release the kernel stack.
func (k *Kernel) Exit(t *Task) {
	if t.State == TaskDead {
		return
	}
	for _, fd := range t.sortedFDs() {
		k.closeFD(t, fd)
	}
	if !t.sharesAS {
		for _, pm := range t.AS.MappedUserPages() {
			k.freeUserPage(t, pm.VA)
		}
		t.AS.ReleasePageTables()
	}
	k.DSV.Revoke(t.Ctx(), t.kstackVA, 4*memsim.PageSize)
	for _, pfn := range k.Km.Vfree(t.kstackVA, 4) {
		k.DSV.Revoke(t.Ctx(), memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
		k.Buddy.Free(pfn)
		k.Cg.Uncharge(t.Ctx(), 1)
	}
	free := func(pfn uint64) {
		k.DSV.Revoke(t.Ctx(), memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
		k.Buddy.Free(pfn)
		k.Cg.Uncharge(t.Ctx(), 1)
	}
	free(t.taskPFN)
	free(t.fdtPFN)
	free((t.replicaVA - memsim.DirectMapBase) / memsim.PageSize)
	free((t.pollVA - memsim.DirectMapBase) / memsim.PageSize)
	free((t.fopsVA - memsim.DirectMapBase) / memsim.PageSize)
	t.State = TaskDead
	delete(k.tasks, t.PID)
	for i, rt := range k.runq {
		if rt == t {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			break
		}
	}
	if k.current == t {
		k.current = nil
		if len(k.runq) > 0 {
			k.switchTo(k.runq[0])
		}
	}
}
