package kernel

import (
	"bytes"
	"testing"

	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/sec"
	"repro/internal/vmm"
)

var testImg = kimage.MustBuild(kimage.TestSpec())

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(DefaultConfig(), testImg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mustProc(t *testing.T, k *Kernel, name string) *Task {
	t.Helper()
	p, err := k.CreateProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBootGlobals(t *testing.T) {
	k := newKernel(t)
	g := kimage.GlobalsVA()
	if k.readKernel(g+kimage.OffColdFlag) != 0 {
		t.Error("cold flag not zero")
	}
	if k.readKernel(g+kimage.OffXUSBLimit) != 256 {
		t.Error("xusb limit not set")
	}
	if k.readKernel(g+kimage.OffXUSBTable) != k.XUSBTableVA() {
		t.Error("xusb table mismatch")
	}
	// Ioctl slot 0 points at the CVE gadget.
	want := testImg.MustFunc("xusb_ioctl_gadget").VA
	if k.readKernel(g+kimage.OffIoctlTable) != want {
		t.Error("ioctl slot 0 wrong")
	}
	// Globals are in the kernel context's DSV, nobody else's.
	if !k.DSV.Owns(sec.CtxKernel, g) {
		t.Error("globals not in kernel DSV")
	}
}

func TestCreateProcessDSV(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	ctx := p.Ctx()
	for what, va := range map[string]uint64{
		"task struct":  p.TaskVA(),
		"kernel stack": p.kstackVA,
		"replica":      p.ReplicaVA(),
	} {
		if !k.DSV.Owns(ctx, va) {
			t.Errorf("%s (%#x) not in process DSV", what, va)
		}
	}
	// Another process does not own them.
	q := mustProc(t, k, "db")
	if k.DSV.Owns(q.Ctx(), p.TaskVA()) {
		t.Error("foreign task struct in DSV")
	}
	// Task-struct fields rendered for ISA handlers.
	if k.readKernel(p.TaskVA()+kimage.TaskPIDOff) != uint64(p.PID) {
		t.Error("PID not rendered")
	}
	if k.readKernel(p.TaskVA()+kimage.TaskCtxOff+kimage.CtxReplica) != p.ReplicaVA() {
		t.Error("replica VA not rendered")
	}
}

func TestGetpid(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	ret, err := k.Syscall(p, kimage.NRGetpid)
	if err != nil || ret != uint64(p.PID) {
		t.Errorf("getpid = %d, %v", ret, err)
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func TestFileReadWrite(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	fd, err := k.Syscall(p, kimage.NROpen, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := k.FileByFD(p, int(fd))
	k.WriteFileData(f, []byte("hello, perspective kernel!"))

	buf, _, _ := mustMmap(t, k, p, 4096, true)
	n, err := k.Syscall(p, kimage.NRRead, fd, buf, 26)
	if err != nil || n != 26 {
		t.Fatalf("read = %d, %v", n, err)
	}
	got, err := k.ReadUser(p, buf, 26)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello, perspective kernel!")) {
		t.Errorf("read data = %q", got)
	}
	// Write back at the file offset.
	k.CopyToUser(p, buf, []byte("REWRITE!"))
	n, err = k.Syscall(p, kimage.NRWrite, fd, buf, 8)
	if err != nil || n != 8 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if f.size != 34 {
		t.Errorf("file size = %d", f.size)
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func mustMmap(t *testing.T, k *Kernel, p *Task, length uint64, populate bool) (uint64, uint64, error) {
	t.Helper()
	pop := uint64(0)
	if populate {
		pop = 1
	}
	va, err := k.Syscall(p, kimage.NRMmap, length, pop)
	if err != nil {
		t.Fatal(err)
	}
	return va, length, nil
}

func TestMmapMunmapDSV(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	va, _, _ := mustMmap(t, k, p, 3*4096, true)
	if !k.DSV.Owns(p.Ctx(), va) || !k.DSV.Owns(p.Ctx(), va+2*4096) {
		t.Error("mapped pages not in DSV")
	}
	pfn, ok := p.AS.Lookup(va)
	if !ok {
		t.Fatal("page not mapped")
	}
	dmVA := memsim.DirectMapVA(pfn * memsim.PageSize)
	if !k.DSV.Owns(p.Ctx(), dmVA) {
		t.Error("direct-map alias not in DSV")
	}
	free0 := k.Buddy.FreePages()
	if _, err := k.Syscall(p, kimage.NRMunmap, va, 3*4096); err != nil {
		t.Fatal(err)
	}
	if k.DSV.Owns(p.Ctx(), va) || k.DSV.Owns(p.Ctx(), dmVA) {
		t.Error("DSV ownership survives munmap")
	}
	if k.Buddy.FreePages() != free0+3 {
		t.Errorf("frames not freed: %d -> %d", free0, k.Buddy.FreePages())
	}
}

func TestPageFaultSyscall(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	va, _, _ := mustMmap(t, k, p, 4*4096, false)
	if _, ok := p.AS.Lookup(va); ok {
		t.Fatal("unpopulated mmap mapped pages")
	}
	if _, err := k.Syscall(p, kimage.NRPageFault, va); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.AS.Lookup(va); !ok {
		t.Error("fault did not map the page")
	}
	if k.Stats.PageFaults == 0 {
		t.Error("fault not counted")
	}
}

func TestPipe(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	ret, err := k.Syscall(p, kimage.NRPipe)
	if err != nil {
		t.Fatal(err)
	}
	rfd, wfd := ret>>32, ret&0xffffffff
	buf, _, _ := mustMmap(t, k, p, 4096, true)
	k.CopyToUser(p, buf, []byte("pipe payload"))
	if _, err := k.Syscall(p, kimage.NRWrite, wfd, buf, 12); err != nil {
		t.Fatal(err)
	}
	out := buf + 2048
	n, err := k.Syscall(p, kimage.NRRead, rfd, out, 64)
	if err != nil || n != 12 {
		t.Fatalf("pipe read = %d, %v", n, err)
	}
	got, _ := k.ReadUser(p, out, 12)
	if string(got) != "pipe payload" {
		t.Errorf("pipe data = %q", got)
	}
	// Drained: next read would block.
	if _, err := k.Syscall(p, kimage.NRRead, rfd, out, 64); err != ErrAgain {
		t.Errorf("drained pipe read err = %v", err)
	}
}

// TestPipeRingWraps moves payloads through a pipe so that both the write
// and the read span the end of the ring buffer.
func TestPipeRingWraps(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	ret, err := k.Syscall(p, kimage.NRPipe)
	if err != nil {
		t.Fatal(err)
	}
	rfd, wfd := ret>>32, ret&0xffffffff
	buf, _, _ := mustMmap(t, k, p, 4*4096, true)
	out := buf + 2*4096
	for round := 0; round < 3; round++ {
		payload := make([]byte, 3000)
		for i := range payload {
			payload[i] = byte(i*7 + round)
		}
		k.CopyToUser(p, buf, payload)
		if n, err := k.Syscall(p, kimage.NRWrite, wfd, buf, uint64(len(payload))); err != nil || n != uint64(len(payload)) {
			t.Fatalf("round %d: pipe write = %d, %v", round, n, err)
		}
		if n, err := k.Syscall(p, kimage.NRRead, rfd, out, uint64(len(payload))); err != nil || n != uint64(len(payload)) {
			t.Fatalf("round %d: pipe read = %d, %v", round, n, err)
		}
		if got, _ := k.ReadUser(p, out, len(payload)); !bytes.Equal(got, payload) {
			t.Fatalf("round %d: pipe returned different bytes", round)
		}
	}
}

func TestLoopbackSockets(t *testing.T) {
	k := newKernel(t)
	server := mustProc(t, k, "server")
	client := mustProc(t, k, "client")

	sfd, _ := k.Syscall(server, kimage.NRSocket)
	k.Syscall(server, kimage.NRBind, sfd, 80)
	k.Syscall(server, kimage.NRListen, sfd)

	cfd, _ := k.Syscall(client, kimage.NRSocket)
	if _, err := k.Syscall(client, kimage.NRConnect, cfd, 80); err != nil {
		t.Fatal(err)
	}
	afd, err := k.Syscall(server, kimage.NRAccept, sfd)
	if err != nil {
		t.Fatal(err)
	}

	cbuf, _, _ := mustMmap(t, k, client, 4096, true)
	sbuf, _, _ := mustMmap(t, k, server, 4096, true)
	k.CopyToUser(client, cbuf, []byte("GET / HTTP/1.1"))
	if _, err := k.Syscall(client, kimage.NRSend, cfd, cbuf, 14); err != nil {
		t.Fatal(err)
	}
	n, err := k.Syscall(server, kimage.NRRecv, afd, sbuf, 64)
	if err != nil || n != 14 {
		t.Fatalf("recv = %d, %v", n, err)
	}
	got, _ := k.ReadUser(server, sbuf, 14)
	if string(got) != "GET / HTTP/1.1" {
		t.Errorf("recv data = %q", got)
	}

	// Reply path.
	k.CopyToUser(server, sbuf, []byte("200 OK"))
	k.Syscall(server, kimage.NRSend, afd, sbuf, 6)
	n, err = k.Syscall(client, kimage.NRRecv, cfd, cbuf, 64)
	if err != nil || n != 6 {
		t.Fatalf("client recv = %d, %v", n, err)
	}

	// The server-side connection socket's ring is owned by the server's
	// context — mutually distrusting containers keep distinct ownership.
	af, _ := k.FileByFD(server, int(afd))
	if !k.DSV.Owns(server.Ctx(), af.dataVA) {
		t.Error("server ring not in server DSV")
	}
	if k.DSV.Owns(client.Ctx(), af.dataVA) {
		t.Error("server ring leaked into client DSV")
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func TestPollSelectEpoll(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	ret, _ := k.Syscall(p, kimage.NRPipe)
	rfd, wfd := int(ret>>32), int(ret&0xffffffff)
	fd2, _ := k.Syscall(p, kimage.NROpen)

	n, err := k.PollFDs(p, []int{rfd, int(fd2)})
	if err != nil || n != 0 {
		t.Fatalf("poll on idle fds = %d, %v", n, err)
	}
	buf, _, _ := mustMmap(t, k, p, 4096, true)
	k.CopyToUser(p, buf, []byte("x"))
	k.Syscall(p, kimage.NRWrite, uint64(wfd), buf, 1)
	n, err = k.PollFDs(p, []int{rfd, int(fd2)})
	if err != nil || n != 1 {
		t.Fatalf("poll after write = %d, %v", n, err)
	}
	if n, _ := k.SelectFDs(p, []int{rfd}); n != 1 {
		t.Errorf("select = %d", n)
	}

	epfd, err := k.Syscall(p, kimage.NREpollCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Syscall(p, kimage.NREpollCtl, epfd, uint64(rfd)); err != nil {
		t.Fatal(err)
	}
	n, err = k.EpollWait(p, int(epfd))
	if err != nil || n != 1 {
		t.Fatalf("epoll_wait = %d, %v", n, err)
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func TestForkCopiesMemory(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	va, _, _ := mustMmap(t, k, p, 2*4096, true)
	k.CopyToUser(p, va, []byte("parent data"))
	ret, err := k.Syscall(p, kimage.NRFork)
	if err != nil {
		t.Fatal(err)
	}
	child := k.tasks[int(ret)]
	if child == nil {
		t.Fatal("child not found")
	}
	got, err := k.ReadUser(child, va, 11)
	if err != nil || string(got) != "parent data" {
		t.Fatalf("child memory = %q, %v", got, err)
	}
	// Distinct frames: writing in the child must not affect the parent.
	k.CopyToUser(child, va, []byte("CHILD"))
	pgot, _ := k.ReadUser(p, va, 11)
	if string(pgot) != "parent data" {
		t.Error("fork shares frames with parent")
	}
	// Same container -> same context, so DSVs agree.
	if child.Ctx() != p.Ctx() {
		t.Error("fork changed context")
	}
}

func TestCloneSharesAddressSpace(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	va, _, _ := mustMmap(t, k, p, 4096, true)
	ret, err := k.Syscall(p, kimage.NRClone)
	if err != nil {
		t.Fatal(err)
	}
	thr := k.tasks[int(ret)]
	k.CopyToUser(thr, va, []byte("thread"))
	got, _ := k.ReadUser(p, va, 6)
	if string(got) != "thread" {
		t.Error("clone does not share the address space")
	}
}

func TestExitReleasesResources(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	free0 := k.Buddy.FreePages()
	q := mustProc(t, k, "db")
	mustMmap(t, k, q, 4*4096, true)
	k.Syscall(q, kimage.NROpen)
	k.Syscall(q, kimage.NRPipe)
	k.Syscall(q, kimage.NRExit)
	if q.State != TaskDead {
		t.Error("task not dead")
	}
	// All of q's frames return (slab pages may be cached: allow a small
	// residue).
	leak := int64(free0) - int64(k.Buddy.FreePages())
	if leak > 2 {
		t.Errorf("leaked %d pages on exit", leak)
	}
	if k.DSV.Owns(q.Ctx(), q.TaskVA()) {
		t.Error("task struct still in DSV after exit")
	}
	_ = p
}

func TestFutexBlockWake(t *testing.T) {
	k := newKernel(t)
	a := mustProc(t, k, "web")
	b := mustProc(t, k, "web")
	addr := uint64(0x1000)
	k.Syscall(a, kimage.NRFutex, addr, 0) // a blocks; schedule -> b
	if a.State != TaskBlocked {
		t.Error("a not blocked")
	}
	if k.Current() != b {
		t.Errorf("current = pid %d, want b", k.Current().PID)
	}
	k.Syscall(b, kimage.NRFutex, addr, 1) // wake a
	if a.State != TaskRunnable {
		t.Error("a not woken")
	}
}

func TestSchedYieldRoundRobin(t *testing.T) {
	k := newKernel(t)
	a := mustProc(t, k, "web")
	b := mustProc(t, k, "db")
	k.switchTo(a)
	k.Syscall(a, kimage.NRSchedYield)
	if k.Current() != b {
		t.Errorf("current pid = %d, want %d", k.Current().PID, b.PID)
	}
	k.Syscall(b, kimage.NRSchedYield)
	if k.Current() != a {
		t.Error("round robin did not wrap")
	}
	if k.Stats.ContextSwitch == 0 {
		t.Error("no context switches counted")
	}
}

func TestTimingProgressesAndTraces(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	k.Trace.Enable(p.Ctx())
	before := k.Core.Now()
	for i := 0; i < 5; i++ {
		k.Syscall(p, kimage.NRGetpid)
	}
	if k.Core.Now() <= before {
		t.Error("no cycles consumed")
	}
	if k.Trace.TracedCount(p.Ctx()) < 2 {
		t.Errorf("trace captured %d funcs", k.Trace.TracedCount(p.Ctx()))
	}
	// sys_getpid and its service chain must be in the trace.
	traced := map[string]bool{}
	for _, id := range k.Trace.Traced(p.Ctx()) {
		traced[testImg.FuncByID(id).Name] = true
	}
	if !traced["sys_getpid"] || !traced["svc_getpid"] {
		t.Errorf("trace missing expected funcs: %v", traced)
	}
}

func TestSyntheticSyscallRuns(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	if _, err := k.Syscall(p, kimage.NRGenBase); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Syscall(p, 9999); err == nil {
		t.Error("unknown syscall accepted")
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func TestIoctlGadgetPathSafe(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	// Benign in-bounds ioctl into the gadget driver: must not fault.
	buf, _, _ := mustMmap(t, k, p, 4096, true)
	if _, err := k.Syscall(p, kimage.NRIoctl, 0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

func TestBrkGrowsHeap(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "web")
	newBrk := uint64(vmm.UserHeapBase + 2*4096)
	ret, err := k.Syscall(p, kimage.NRBrk, newBrk)
	if err != nil || ret != newBrk {
		t.Fatalf("brk = %#x, %v", ret, err)
	}
	// Heap pages fault in on demand.
	if err := k.CopyToUser(p, vmm.UserHeapBase, []byte("heap")); err != nil {
		t.Fatal(err)
	}
}

// Seccomp (§2.3): the conventional interposition baseline — blocked
// syscalls fail architecturally, which is exactly the usability hazard ISVs
// avoid by constraining only speculation.
func TestSeccompInterposition(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "sandboxed")
	k.SetSeccomp(p, []int{kimage.NRGetpid, kimage.NRMmap})
	if _, err := k.Syscall(p, kimage.NRGetpid); err != nil {
		t.Fatalf("allowed syscall failed: %v", err)
	}
	if _, err := k.Syscall(p, kimage.NROpen); err != ErrPerm {
		t.Errorf("denied syscall returned %v, want EPERM", err)
	}
	// Unfiltered sibling processes are unaffected.
	q := mustProc(t, k, "free")
	if _, err := k.Syscall(q, kimage.NROpen); err != nil {
		t.Errorf("unfiltered process blocked: %v", err)
	}
}
