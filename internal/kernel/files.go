package kernel

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/sec"
)

// FileKind distinguishes VFS object types.
type FileKind int

const (
	// FileRegular is a page-cache backed file.
	FileRegular FileKind = iota
	// FilePipe is one end of a pipe.
	FilePipe
	// FileSocket is a loopback socket.
	FileSocket
	// FileEpoll is an epoll instance.
	FileEpoll
)

// ErrAgain is the would-block error (empty ring, full ring, empty backlog).
var ErrAgain = errors.New("EAGAIN")

// ErrBadFD reports an invalid descriptor.
var ErrBadFD = errors.New("EBADF")

// ErrPerm reports a seccomp-denied syscall.
var ErrPerm = errors.New("EPERM")

const ringCap = memsim.PageSize

// File is the kernel-side object behind a descriptor. Go fields are the
// functional truth; the slab-allocated struct at structPA is the rendering
// ISA handlers load from (refreshed by marshalFile before timing runs).
type File struct {
	Kind  FileKind
	owner sec.Ctx
	refs  int

	structPA uint64 // 64-byte slab object in simulated memory
	dataVA   uint64 // backing frame VA (page cache or ring buffer)

	// Regular files.
	size   uint64
	offset uint64

	// Pipes and sockets: a byte ring in the frame at dataVA.
	head, tail uint64
	peer       *File

	// Listening sockets.
	listening bool
	backlog   []*File

	// Epoll instances.
	interest []*File

	// sharesBuf marks files (pipe write ends) whose dataVA frame belongs
	// to another File; teardown must not double-free it.
	sharesBuf bool
}

// StructVA returns the direct-map VA of the in-memory file struct.
func (f *File) StructVA() uint64 { return memsim.DirectMapVA(f.structPA) }

func (f *File) ringUsed() uint64 { return f.head - f.tail }

// Readable reports whether a read/recv would make progress.
func (f *File) Readable() bool {
	switch f.Kind {
	case FileRegular:
		return f.offset < f.size
	default:
		return f.ringUsed() > 0
	}
}

// newFile allocates the slab struct and backing frame for a file owned by
// ctx, wiring the given f_op table.
func (k *Kernel) newFile(t *Task, kind FileKind, ctx sec.Ctx) (*File, error) {
	pa, err := k.Slab.Kmalloc(kimage.FileStructSz, ctx)
	if err != nil {
		return nil, err
	}
	pfn, ok := k.Buddy.AllocPages(0, ctx)
	if !ok {
		k.Slab.Kfree(pa)
		return nil, fmt.Errorf("kernel: OOM for file buffer")
	}
	k.Phys.ZeroFrame(pfn)
	k.Cg.Charge(ctx, 1)
	k.DSV.Assign(ctx, memsim.DirectMapVA(pfn*memsim.PageSize), memsim.PageSize)
	f := &File{
		Kind:     kind,
		owner:    ctx,
		refs:     1,
		structPA: pa,
		dataVA:   memsim.DirectMapVA(pfn * memsim.PageSize),
	}
	sv := f.StructVA()
	k.writeKernel(sv+kimage.FileFOpsOff, t.fopsFor(kind))
	k.writeKernel(sv+kimage.FileDataOff, f.dataVA)
	k.marshalFile(f)
	return f, nil
}

// marshalFile renders the functional state into the simulated struct so ISA
// handlers (poll scans, ring checks) see current values.
func (k *Kernel) marshalFile(f *File) {
	sv := f.StructVA()
	state := uint64(0)
	if f.Readable() {
		state = 1
	}
	k.writeKernel(sv+kimage.FileStateOff, state)
	k.writeKernel(sv+kimage.FileHeadOff, f.head)
	k.writeKernel(sv+kimage.FileTailOff, f.tail)
	k.writeKernel(sv+kimage.FileSizeOff, f.size)
}

// installFD binds a file to the next descriptor and mirrors it in the
// fd-table page for the ISA fdget path. Tasks with FD reuse enabled
// (connection-churn drivers) recycle the lowest closed descriptor first —
// POSIX lowest-free semantics — so the fd-table page stays bounded under
// millions of connect/close cycles instead of marching past its one-page
// mirror.
func (k *Kernel) installFD(t *Task, f *File) int {
	var fd int
	if n := len(t.freeFDs); n > 0 {
		fd = t.freeFDs[n-1]
		t.freeFDs = t.freeFDs[:n-1]
	} else {
		fd = t.nextFD
		t.nextFD++
	}
	t.files[fd] = f
	k.writeKernel(t.fdtVA()+kimage.FDTArrayOff+uint64(8*fd), f.StructVA())
	return fd
}

// insertFDSorted keeps the free list descending so installFD pops the
// lowest free descriptor from the tail in O(1).
func insertFDSorted(fds []int, fd int) []int {
	i := sort.Search(len(fds), func(i int) bool { return fds[i] < fd })
	fds = append(fds, 0)
	copy(fds[i+1:], fds[i:])
	fds[i] = fd
	return fds
}

// EnableFDReuse switches the task to POSIX lowest-free descriptor
// allocation. Off by default: the monotone allocator keeps long-standing
// experiment outputs byte-stable, so only connection-churn drivers (the
// taillats fleet) opt in.
func (k *Kernel) EnableFDReuse(t *Task) { t.reuseFDs = true }

func (k *Kernel) lookupFD(t *Task, fd int) (*File, error) {
	f, ok := t.files[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return f, nil
}

// closeFD drops a descriptor; the last reference frees the slab struct and
// the buffer frame (revoking DSV ownership).
func (k *Kernel) closeFD(t *Task, fd int) error {
	f, ok := t.files[fd]
	if !ok {
		return ErrBadFD
	}
	delete(t.files, fd)
	k.writeKernel(t.fdtVA()+kimage.FDTArrayOff+uint64(8*fd), 0)
	if t.reuseFDs {
		t.freeFDs = insertFDSorted(t.freeFDs, fd)
	}
	f.refs--
	if f.refs > 0 {
		return nil
	}
	k.Slab.Kfree(f.structPA)
	if !f.sharesBuf && f.dataVA != 0 {
		pfn := (f.dataVA - memsim.DirectMapBase) / memsim.PageSize
		k.DSV.Revoke(f.owner, f.dataVA, memsim.PageSize)
		k.Buddy.Free(pfn)
		k.Cg.Uncharge(f.owner, 1)
	}
	return nil
}

// ringWrite copies data into f's ring, returning bytes accepted.
func (k *Kernel) ringWrite(f *File, data []byte) int {
	space := ringCap - f.ringUsed()
	n := uint64(len(data))
	if n > space {
		n = space
	}
	pa, _ := memsim.DirectMapPA(f.dataVA, k.Phys.Bytes())
	// At most two spans: up to the end of the ring, then from its start.
	off := f.head % ringCap
	first := min(n, ringCap-off)
	k.Phys.CopyIn(pa+off, data[:first])
	k.Phys.CopyIn(pa, data[first:n])
	f.head += n
	k.marshalFile(f)
	return int(n)
}

// ringRead drains up to n bytes from f's ring.
func (k *Kernel) ringRead(f *File, n int) []byte {
	avail := f.ringUsed()
	if uint64(n) < avail {
		avail = uint64(n)
	}
	pa, _ := memsim.DirectMapPA(f.dataVA, k.Phys.Bytes())
	out := k.xfer(avail)
	off := f.tail % ringCap
	first := min(avail, ringCap-off)
	k.Phys.CopyOut(pa+off, out[:first])
	k.Phys.CopyOut(pa, out[first:])
	f.tail += avail
	k.marshalFile(f)
	return out
}

// WriteFileData seeds a regular file's page cache (the "disk contents").
func (k *Kernel) WriteFileData(f *File, data []byte) {
	if len(data) > memsim.PageSize {
		data = data[:memsim.PageSize]
	}
	pa, _ := memsim.DirectMapPA(f.dataVA, k.Phys.Bytes())
	k.Phys.CopyIn(pa, data)
	f.size = uint64(len(data))
	f.offset = 0
	k.marshalFile(f)
}

// FileByFD exposes descriptor lookup for tests and workloads.
func (k *Kernel) FileByFD(t *Task, fd int) (*File, bool) {
	f, ok := t.files[fd]
	return f, ok
}

// Rewind resets a regular file's offset (lseek(fd, 0, SEEK_SET)).
func (k *Kernel) Rewind(t *Task, fd int) {
	if f, ok := t.files[fd]; ok && f.Kind == FileRegular {
		f.offset = 0
		k.marshalFile(f)
	}
}

// ExitPID tears down the task with the given PID (benchmark loops reap
// forked children with it).
func (k *Kernel) ExitPID(pid int) {
	if t, ok := k.tasks[pid]; ok {
		k.Exit(t)
	}
}
