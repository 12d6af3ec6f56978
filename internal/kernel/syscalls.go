package kernel

import (
	"fmt"

	"repro/internal/kimage"
	"repro/internal/memsim"
)

// ctxMarshal is the per-invocation parameter block rendered into the task's
// syscall context block for the ISA handler (R11-relative loads).
type ctxMarshal struct {
	src, dst, words, nfds, extra uint64
	fdarr                        []uint64
}

// maxCtxFDs bounds the inline fd array in the context block.
const maxCtxFDs = (kimage.CtxReplica - kimage.CtxFDArray) / 8

func (k *Kernel) marshalCtx(t *Task, m ctxMarshal) {
	base := t.TaskVA() + kimage.TaskCtxOff
	k.writeKernel(base+kimage.CtxSrc, m.src)
	k.writeKernel(base+kimage.CtxDst, m.dst)
	k.writeKernel(base+kimage.CtxWords, m.words)
	k.writeKernel(base+kimage.CtxNFds, m.nfds)
	k.writeKernel(base+kimage.CtxExtra, m.extra)
	for i, v := range m.fdarr {
		if i >= maxCtxFDs {
			break
		}
		k.writeKernel(base+kimage.CtxFDArray+uint64(8*i), v)
	}
}

// clampToPage bounds a word count so an ISA copy starting at the kernel VA
// va never walks past its page into an unrelated physical frame.
func clampToPage(va, words uint64) uint64 {
	room := (memsim.PageSize - va%memsim.PageSize) / 8
	if words > room {
		return room
	}
	return words
}

// Syscall performs a system call on behalf of t: functional semantics in
// Go, then the timing run of the handler's ISA code.
func (k *Kernel) Syscall(t *Task, nr int, args ...uint64) (uint64, error) {
	var a [6]uint64
	copy(a[:], args)
	k.switchTo(t)
	k.Stats.Syscalls++
	if t.seccomp != nil && !t.seccomp[nr] {
		return 0, ErrPerm
	}
	switch nr {
	case kimage.NRExit, kimage.NRSchedYield, kimage.NRNanosleep, kimage.NRFutex:
		// Scheduling syscalls switch away (or tear the task down) inside
		// dispatch; their handler timing must run while t is still the
		// current task.
		k.timeSyscall(t, nr, ctxMarshal{src: t.TaskVA(), dst: t.TaskVA()}, a)
		ret, _, err := k.dispatch(t, nr, a)
		return ret, err
	}
	ret, m, err := k.dispatch(t, nr, a)
	k.timeSyscall(t, nr, m, a)
	return ret, err
}

func (k *Kernel) timeSyscall(t *Task, nr int, m ctxMarshal, a [6]uint64) {
	entry := k.Img.SyscallEntry(nr)
	if entry == nil {
		return
	}
	k.marshalCtx(t, m)
	for i := 0; i < 6; i++ {
		k.Core.Regs[1+i] = a[i]
	}
	k.runKernelVA(t, entry.VA)
}

// dispatch implements the functional semantics and produces the timing
// marshal for each syscall.
func (k *Kernel) dispatch(t *Task, nr int, a [6]uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	switch nr {
	case kimage.NRGetpid:
		return uint64(t.PID), m, nil

	case kimage.NRGetuid:
		return k.readKernel(t.TaskVA() + kimage.TaskUIDOff), m, nil

	case kimage.NRRead:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		return k.doRead(t, f, a[1], a[2])

	case kimage.NRWrite:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		return k.doWrite(t, f, a[1], a[2])

	case kimage.NROpen:
		f, err := k.newFile(t, FileRegular, t.Ctx())
		if err != nil {
			return 0, m, err
		}
		return uint64(k.installFD(t, f)), m, nil

	case kimage.NRClose:
		return 0, m, k.closeFD(t, int(a[0]))

	case kimage.NRDup:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		f.refs++
		return uint64(k.installFD(t, f)), m, nil

	case kimage.NRStat, kimage.NRFstat:
		if err := k.ensureUserPages(t, a[1], 128); err != nil {
			return 0, m, err
		}
		m = ctxMarshal{src: t.TaskVA(), dst: a[1], words: 16}
		return 0, m, nil

	case kimage.NRPoll, kimage.NRSelect, kimage.NREpollWait:
		// Reached via the PollFDs/EpollWait wrappers, which build the
		// marshal; a direct call scans nothing.
		return 0, m, nil

	case kimage.NREpollCreate:
		f, err := k.newFile(t, FileEpoll, t.Ctx())
		if err != nil {
			return 0, m, err
		}
		return uint64(k.installFD(t, f)), m, nil

	case kimage.NREpollCtl:
		ep, err := k.lookupFD(t, int(a[0]))
		if err != nil || ep.Kind != FileEpoll {
			return 0, m, ErrBadFD
		}
		f, err := k.lookupFD(t, int(a[1]))
		if err != nil {
			return 0, m, err
		}
		if a[2] != 0 { // EPOLL_CTL_DEL
			// closeFD does not unhook epoll membership (matching the need
			// for explicit DEL in real epoll): connection-churn loops must
			// drop interest before closing or the scan would keep walking
			// a freed file struct.
			for i, g := range ep.interest {
				if g == f {
					ep.interest = append(ep.interest[:i], ep.interest[i+1:]...)
					break
				}
			}
			return 0, m, nil
		}
		ep.interest = append(ep.interest, f)
		return 0, m, nil

	case kimage.NRMmap:
		return k.doMmap(t, a[0], a[1] != 0)

	case kimage.NRMunmap:
		return k.doMunmap(t, a[0], a[1])

	case kimage.NRBrk:
		old := t.AS.Brk(a[0])
		if a[0] == 0 {
			return old, m, nil
		}
		return a[0], m, nil

	case kimage.NRPageFault:
		va := a[0] &^ 0xfff
		if _, ok := t.AS.Lookup(va); !ok {
			pfn, err := k.allocUserPage(t, va)
			if err != nil {
				return 0, m, err
			}
			k.Stats.PageFaults++
			m = ctxMarshal{
				dst:   memsim.DirectMapVA(pfn * memsim.PageSize),
				words: 512,
				extra: uint64(len(t.AS.VMAs()) + 1),
			}
		}
		return 0, m, nil

	case kimage.NRFork:
		child, err := k.doFork(t, false)
		if err != nil {
			return 0, m, err
		}
		parentPages := t.AS.MappedUserPages()
		if len(parentPages) > 0 {
			// Pick one parent/child page pair for the idempotent timing
			// copy (the lowest-VA page, so the choice is deterministic);
			// iterate once per copied page, up to the cap.
			va, pfn := parentPages[0].VA, parentPages[0].PFN
			cpfn, _ := child.AS.Lookup(va)
			m = ctxMarshal{
				src:   memsim.DirectMapVA(pfn * memsim.PageSize),
				dst:   memsim.DirectMapVA(cpfn * memsim.PageSize),
				words: 512,
				extra: min(uint64(len(parentPages)), timingCopyCapPages),
			}
		}
		return uint64(child.PID), m, nil

	case kimage.NRClone:
		child, err := k.doFork(t, true)
		if err != nil {
			return 0, m, err
		}
		return uint64(child.PID), m, nil

	case kimage.NRExit:
		k.Exit(t)
		return 0, m, nil

	case kimage.NRSchedYield:
		k.Schedule()
		return 0, m, nil

	case kimage.NRNanosleep:
		k.Core.Advance(float64(a[0]))
		k.Schedule()
		return 0, m, nil

	case kimage.NRFutex:
		return k.doFutex(t, a[0], a[1])

	case kimage.NRSocket:
		f, err := k.newFile(t, FileSocket, t.Ctx())
		if err != nil {
			return 0, m, err
		}
		return uint64(k.installFD(t, f)), m, nil

	case kimage.NRBind:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		k.listeners[a[1]] = listener{task: t, file: f}
		return 0, m, nil

	case kimage.NRListen:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		f.listening = true
		return 0, m, nil

	case kimage.NRConnect:
		return k.doConnect(t, int(a[0]), a[1])

	case kimage.NRAccept:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		if len(f.backlog) == 0 {
			return 0, m, ErrAgain
		}
		peer := f.backlog[0]
		f.backlog = f.backlog[1:]
		return uint64(k.installFD(t, peer)), m, nil

	case kimage.NRSend:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		if f.Kind != FileSocket || f.peer == nil {
			return 0, m, ErrBadFD
		}
		return k.doSend(t, f, a[1], a[2])

	case kimage.NRRecv:
		f, err := k.lookupFD(t, int(a[0]))
		if err != nil {
			return 0, m, err
		}
		return k.doRecv(t, f, a[1], a[2])

	case kimage.NRPipe:
		return k.doPipe(t)

	case kimage.NRIoctl, kimage.NRPtrace, kimage.NRBPF:
		// No functional semantics: these exist for their kernel code paths
		// (including the CVE gadgets reached through them).
		return 0, m, nil

	default:
		if k.Img.SyscallEntry(nr) != nil {
			return 0, m, nil // synthetic syscall: timing only
		}
		return 0, m, fmt.Errorf("kernel: ENOSYS %d", nr)
	}
}

func (k *Kernel) doRead(t *Task, f *File, buf, n uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	switch f.Kind {
	case FileRegular:
		avail := f.size - f.offset
		if n < avail {
			avail = n
		}
		if avail == 0 {
			return 0, m, nil
		}
		if err := k.ensureUserPages(t, buf, avail+8); err != nil {
			return 0, m, err
		}
		srcVA := f.dataVA + f.offset
		pa, _ := memsim.DirectMapPA(srcVA, k.Phys.Bytes())
		data := k.xfer(avail)
		k.Phys.CopyOut(pa, data)
		if err := k.CopyToUser(t, buf, data); err != nil {
			return 0, m, err
		}
		f.offset += avail
		k.marshalFile(f)
		m = ctxMarshal{src: srcVA, dst: buf, words: clampToPage(srcVA, (avail+7)/8)}
		return avail, m, nil
	case FilePipe, FileSocket:
		return k.doRecv(t, f, buf, n)
	default:
		return 0, m, ErrBadFD
	}
}

func (k *Kernel) doWrite(t *Task, f *File, buf, n uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	switch f.Kind {
	case FileRegular:
		if f.offset+n > memsim.PageSize {
			n = memsim.PageSize - f.offset
		}
		if err := k.ensureUserPages(t, buf, n+8); err != nil {
			return 0, m, err
		}
		data, err := k.readUserXfer(t, buf, int(n))
		if err != nil {
			return 0, m, err
		}
		dstVA := f.dataVA + f.offset
		pa, _ := memsim.DirectMapPA(dstVA, k.Phys.Bytes())
		k.Phys.CopyIn(pa, data)
		f.offset += n
		if f.offset > f.size {
			f.size = f.offset
		}
		k.marshalFile(f)
		m = ctxMarshal{src: buf, dst: dstVA, words: clampToPage(dstVA, (n+7)/8)}
		return n, m, nil
	case FilePipe:
		if f.peer == nil {
			return 0, m, ErrBadFD
		}
		return k.doSend(t, f, buf, n)
	case FileSocket:
		return k.doSend(t, f, buf, n)
	default:
		return 0, m, ErrBadFD
	}
}

func (k *Kernel) doSend(t *Task, f *File, buf, n uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	dst := f.peer
	if err := k.ensureUserPages(t, buf, n+8); err != nil {
		return 0, m, err
	}
	data, err := k.readUserXfer(t, buf, int(n))
	if err != nil {
		return 0, m, err
	}
	preHead := dst.head
	sent := k.ringWrite(dst, data)
	if sent == 0 {
		return 0, m, ErrAgain
	}
	ringDst := dst.dataVA + preHead%ringCap
	m = ctxMarshal{
		src:   buf,
		dst:   ringDst,
		words: clampToPage(ringDst, uint64(sent+7)/8),
	}
	return uint64(sent), m, nil
}

func (k *Kernel) doRecv(t *Task, f *File, buf, n uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	preTail := f.tail
	data := k.ringRead(f, int(n))
	if len(data) == 0 {
		return 0, m, ErrAgain
	}
	if err := k.ensureUserPages(t, buf, uint64(len(data))+8); err != nil {
		return 0, m, err
	}
	if err := k.CopyToUser(t, buf, data); err != nil {
		return 0, m, err
	}
	ringSrc := f.dataVA + preTail%ringCap
	m = ctxMarshal{
		src:   ringSrc,
		dst:   buf,
		words: clampToPage(ringSrc, uint64(len(data)+7)/8),
	}
	return uint64(len(data)), m, nil
}

func (k *Kernel) doMmap(t *Task, length uint64, populate bool) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	pages := (length + memsim.PageSize - 1) / memsim.PageSize
	if pages == 0 {
		pages = 1
	}
	v := t.AS.AddVMA(pages)
	if populate {
		var firstPFN uint64
		for i := uint64(0); i < pages; i++ {
			pfn, err := k.allocUserPage(t, v.Start+i*memsim.PageSize)
			if err != nil {
				return 0, m, err
			}
			if i == 0 {
				firstPFN = pfn
			}
		}
		m = ctxMarshal{
			dst:   memsim.DirectMapVA(firstPFN * memsim.PageSize),
			words: 512,
			extra: min(pages, timingCopyCapPages),
		}
	}
	return v.Start, m, nil
}

func (k *Kernel) doMunmap(t *Task, va, length uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	v := t.AS.FindVMA(va)
	if v == nil {
		return 0, m, fmt.Errorf("kernel: munmap of unmapped %#x", va)
	}
	for p := v.Start; p < v.End; p += memsim.PageSize {
		k.freeUserPage(t, p)
	}
	m = ctxMarshal{words: v.Pages()}
	t.AS.RemoveVMA(v)
	return 0, m, nil
}

func (k *Kernel) doPipe(t *Task) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	rf, err := k.newFile(t, FilePipe, t.Ctx())
	if err != nil {
		return 0, m, err
	}
	wpa, err := k.Slab.Kmalloc(kimage.FileStructSz, t.Ctx())
	if err != nil {
		return 0, m, err
	}
	wf := &File{
		Kind:      FilePipe,
		owner:     t.Ctx(),
		refs:      1,
		structPA:  wpa,
		dataVA:    rf.dataVA,
		peer:      rf,
		sharesBuf: true,
	}
	k.writeKernel(wf.StructVA()+kimage.FileFOpsOff, t.fopsFor(FilePipe))
	k.writeKernel(wf.StructVA()+kimage.FileDataOff, wf.dataVA)
	k.marshalFile(wf)
	rfd := k.installFD(t, rf)
	wfd := k.installFD(t, wf)
	return uint64(rfd)<<32 | uint64(wfd), m, nil
}

func (k *Kernel) doFutex(t *Task, addr, op uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	switch op {
	case 0: // FUTEX_WAIT
		t.State = TaskBlocked
		k.futexWaits[addr] = append(k.futexWaits[addr], t)
		k.Schedule()
		return 0, m, nil
	case 1: // FUTEX_WAKE
		q := k.futexWaits[addr]
		if len(q) > 0 {
			q[0].State = TaskRunnable
			k.futexWaits[addr] = q[1:]
		}
		return 0, m, nil
	}
	return 0, m, fmt.Errorf("kernel: bad futex op %d", op)
}

func (k *Kernel) doConnect(t *Task, fd int, port uint64) (uint64, ctxMarshal, error) {
	var m ctxMarshal
	cs, err := k.lookupFD(t, fd)
	if err != nil {
		return 0, m, err
	}
	l, ok := k.listeners[port]
	if !ok || !l.file.listening {
		return 0, m, fmt.Errorf("kernel: connect: no listener on %d", port)
	}
	// The server-side connection socket is allocated on behalf of the
	// *server's* context (its kernel thread owns the skb memory).
	ps, err := k.newFile(l.task, FileSocket, l.task.Ctx())
	if err != nil {
		return 0, m, err
	}
	cs.peer = ps
	ps.peer = cs
	l.file.backlog = append(l.file.backlog, ps)
	return 0, m, nil
}

// doFork creates a child. Threads (thread=true) share the address space and
// files; processes get a full copy of the user memory.
func (k *Kernel) doFork(t *Task, thread bool) (*Task, error) {
	child, err := k.CreateProcess(t.Group.Name)
	if err != nil {
		return nil, err
	}
	if thread {
		// Replace the fresh AS with the parent's (thread semantics).
		child.AS.ReleasePageTables()
		child.AS = t.AS
		child.sharesAS = true
		child.files = t.files
		child.nextFD = t.nextFD
		return child, nil
	}
	for _, pm := range t.AS.MappedUserPages() {
		cpfn, err := k.allocUserPageFill(child, pm.VA, false)
		if err != nil {
			return nil, err
		}
		k.Phys.CopyFrame(cpfn, pm.PFN)
	}
	// Duplicate descriptors (shared file objects) in fd order — a map
	// range here would vary the kernel-write sequence between runs.
	for _, fd := range t.sortedFDs() {
		f := t.files[fd]
		f.refs++
		child.files[fd] = f
		k.writeKernel(child.fdtVA()+kimage.FDTArrayOff+uint64(8*fd), f.StructVA())
	}
	child.nextFD = t.nextFD
	return child, nil
}

// Schedule rotates to the next runnable task (round-robin).
func (k *Kernel) Schedule() {
	if len(k.runq) == 0 {
		return
	}
	// Rotate starting after the current task.
	start := 0
	for i, t := range k.runq {
		if t == k.current {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(k.runq); i++ {
		t := k.runq[(start+i)%len(k.runq)]
		if t.State == TaskRunnable {
			k.switchTo(t)
			return
		}
	}
	// Nothing runnable: spurious-wake the current task (keeps single-task
	// futex tests alive).
	if k.current != nil {
		k.current.State = TaskRunnable
	}
}

// PollFDs performs poll(2) over the given descriptors: the functional ready
// count plus the ISA fd-scan timing.
func (k *Kernel) PollFDs(t *Task, fds []int) (int, error) {
	return k.scanFDs(t, kimage.NRPoll, fds)
}

// SelectFDs performs select(2) over the given descriptors.
func (k *Kernel) SelectFDs(t *Task, fds []int) (int, error) {
	return k.scanFDs(t, kimage.NRSelect, fds)
}

func (k *Kernel) scanFDs(t *Task, nr int, fds []int) (int, error) {
	k.switchTo(t)
	k.Stats.Syscalls++
	ready := 0
	arr := k.pollBuf[:0]
	for _, fd := range fds {
		f, err := k.lookupFD(t, fd)
		if err != nil {
			return 0, err
		}
		k.marshalFile(f)
		arr = append(arr, f.StructVA())
		if f.Readable() {
			ready++
		}
	}
	k.pollBuf = arr[:0]
	m := ctxMarshal{nfds: k.renderPollArray(t, arr), src: t.pollVA, words: 2, dst: t.TaskVA() + 0x100}
	k.timeSyscall(t, nr, m, [6]uint64{uint64(len(fds))})
	return ready, nil
}

// renderPollArray writes the file-struct pointers into the task's poll
// array page (capped at one page) and returns the rendered count.
func (k *Kernel) renderPollArray(t *Task, arr []uint64) uint64 {
	n := len(arr)
	if n > memsim.PageSize/8 {
		n = memsim.PageSize / 8
	}
	for i := 0; i < n; i++ {
		k.writeKernel(t.pollVA+uint64(8*i), arr[i])
	}
	return uint64(n)
}

// EpollWait scans only the ready members of the epoll interest set (the
// epoll efficiency model).
func (k *Kernel) EpollWait(t *Task, epfd int) (int, error) {
	k.switchTo(t)
	k.Stats.Syscalls++
	ep, err := k.lookupFD(t, epfd)
	if err != nil || ep.Kind != FileEpoll {
		return 0, ErrBadFD
	}
	arr := k.pollBuf[:0]
	ready := 0
	for _, f := range ep.interest {
		k.marshalFile(f)
		if f.Readable() {
			arr = append(arr, f.StructVA())
			ready++
		}
	}
	k.pollBuf = arr[:0]
	m := ctxMarshal{nfds: k.renderPollArray(t, arr), src: t.pollVA, words: 1, dst: t.TaskVA() + 0x100}
	k.timeSyscall(t, kimage.NREpollWait, m, [6]uint64{uint64(epfd)})
	return ready, nil
}

type listener struct {
	task *Task
	file *File
}
