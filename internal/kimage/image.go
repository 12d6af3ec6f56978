// Package kimage builds the synthetic kernel image: hand-written ISA
// implementations of every syscall path the workloads exercise, plus a
// deterministic generated long tail of functions that gives the image the
// statistical shape of a real kernel — ~28K functions across subsystems,
// indirect-dispatch driver code, never-taken error paths, and the Kasper
// gadget census (805 MDS / 509 Port / 219 Cache speculative-execution
// gadgets) buried where the paper found them: mostly in infrequently used
// code (§4.2).
package kimage

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// GadgetKind classifies a transient-execution gadget by its transmission
// channel, following Kasper's taxonomy (§8.2).
type GadgetKind uint8

const (
	// GadgetNone marks a gadget-free function.
	GadgetNone GadgetKind = iota
	// GadgetMDS leaks through microarchitectural buffers (store-to-load).
	GadgetMDS
	// GadgetPort leaks through execution-port contention (tainted multiply).
	GadgetPort
	// GadgetCache leaks through a cache-based covert channel (dependent
	// load).
	GadgetCache
)

func (g GadgetKind) String() string {
	switch g {
	case GadgetMDS:
		return "MDS"
	case GadgetPort:
		return "Port"
	case GadgetCache:
		return "Cache"
	default:
		return "none"
	}
}

// Func is one kernel function.
type Func struct {
	ID   int
	Name string
	// VA is the linked entry address; Code[i] sits at VA + 4i.
	VA   uint64
	Code []isa.Inst
	// Subsys is the owning subsystem ("core", "fs", "net", "mm", "sched",
	// "ipc", "crypto", "sound", "drivers/...").
	Subsys string

	// Gadget marks seeded transient-execution gadgets; GadgetPC is the VA
	// of the transmit instruction.
	Gadget   GadgetKind
	GadgetPC uint64

	// Callees holds IDs of functions reached through *direct* call/jump
	// edges (what static analysis can see). StaticIndirect holds indirect
	// targets enumerable from static data (f_op tables compiled into the
	// kernel image). IndirectCallees holds ground truth for runtime-
	// registered dispatch (what static analysis cannot see — Figure 5.3a's
	// reachable-only nodes).
	Callees         []int
	StaticIndirect  []int
	IndirectCallees []int

	// SyscallNR is the syscall this function is the entry point of, or -1.
	SyscallNR int

	// Cold marks functions that are statically reachable only through
	// never-taken guard branches (error paths).
	Cold bool
}

// NumInsts reports the function's instruction count.
func (f *Func) NumInsts() int { return len(f.Code) }

// End returns the VA just past the function.
func (f *Func) End() uint64 { return f.VA + uint64(len(f.Code))*isa.InstBytes }

// Image is the linked kernel text plus its metadata.
type Image struct {
	funcs   []*Func
	byName  map[string]*Func
	bySys   map[int]*Func
	flat    []isa.Inst // indexed by (va - base)/4
	valid   []bool
	base    uint64
	nInsts  int
	starts  []uint64 // sorted function start VAs, parallel to startFn
	startFn []*Func

	// version counts text mutations (PatchInst/SetInstValid); decoded
	// memoizes the pre-decoded program for the matching version. See
	// decoded.go for the invalidation protocol.
	version uint64
	decoded decodedPtr
}

const funcAlign = 64 // function starts are cache-line aligned

// link places all registered functions, resolves local labels and
// cross-function symbols, and derives Callees metadata.
func link(funcs []*Func) (*Image, error) {
	img := &Image{
		funcs:  funcs,
		byName: make(map[string]*Func, len(funcs)),
		bySys:  make(map[int]*Func),
		base:   memsim.KernelTextBase,
	}
	va := img.base
	for _, f := range funcs {
		if _, dup := img.byName[f.Name]; dup {
			return nil, fmt.Errorf("kimage: duplicate function %q", f.Name)
		}
		img.byName[f.Name] = f
		if f.SyscallNR >= 0 {
			img.bySys[f.SyscallNR] = f
		}
		f.VA = va
		va += uint64(len(f.Code)) * isa.InstBytes
		// Align the next function start.
		va = (va + funcAlign - 1) &^ (funcAlign - 1)
	}
	size := int(va-img.base) / isa.InstBytes
	img.flat = make([]isa.Inst, size)
	img.valid = make([]bool, size)
	for _, f := range funcs {
		calleeSet := map[int]bool{}
		for i := range f.Code {
			in := f.Code[i]
			switch in.Sym {
			case "":
				// already absolute (or not a control transfer)
			case isa.LocalSym:
				in.Target = f.VA + in.Target*isa.InstBytes
				in.Sym = ""
			default:
				target, ok := img.byName[in.Sym]
				if !ok {
					return nil, fmt.Errorf("kimage: %s references undefined %q", f.Name, in.Sym)
				}
				in.Target = target.VA
				in.Sym = ""
				if target != f && !calleeSet[target.ID] {
					calleeSet[target.ID] = true
					f.Callees = append(f.Callees, target.ID)
				}
			}
			f.Code[i] = in
			idx := int(f.VA-img.base)/isa.InstBytes + i
			img.flat[idx] = in
			img.valid[idx] = true
			img.nInsts++
		}
		sort.Ints(f.Callees)
		f.GadgetPC = 0
		if f.Gadget != GadgetNone {
			// The transmit instruction is the last transmitter in the body.
			for i := len(f.Code) - 1; i >= 0; i-- {
				if f.Code[i].IsTransmitter() {
					f.GadgetPC = f.VA + uint64(i)*isa.InstBytes
					break
				}
			}
		}
		img.starts = append(img.starts, f.VA)
		img.startFn = append(img.startFn, f)
	}
	return img, nil
}

// FetchInst returns the instruction at va by value (tests and tools).
func (img *Image) FetchInst(va uint64) (isa.Inst, bool) {
	if in := img.InstAt(va); in != nil {
		return *in, true
	}
	return isa.Inst{}, false
}

// InstAt returns a pointer to the instruction at va, or nil if va is not
// fetchable. The image is immutable after linking, so handing out interior
// pointers is safe — and it spares the per-fetch struct copy on the single
// hottest call in the simulator (the frontend fetches one instruction per
// simulated instruction).
func (img *Image) InstAt(va uint64) *isa.Inst {
	if va < img.base || va%isa.InstBytes != 0 {
		return nil
	}
	idx := int(va-img.base) / isa.InstBytes
	if idx >= len(img.flat) || !img.valid[idx] {
		return nil
	}
	return &img.flat[idx]
}

// Funcs returns all functions in layout order.
func (img *Image) Funcs() []*Func { return img.funcs }

// NumFuncs reports the function count.
func (img *Image) NumFuncs() int { return len(img.funcs) }

// NumInsts reports total linked instructions.
func (img *Image) NumInsts() int { return img.nInsts }

// FuncByName resolves a function by name.
func (img *Image) FuncByName(name string) *Func { return img.byName[name] }

// MustFunc resolves a function, panicking if absent (generator invariants).
func (img *Image) MustFunc(name string) *Func {
	f := img.byName[name]
	if f == nil {
		panic("kimage: missing function " + name)
	}
	return f
}

// SyscallEntry returns the entry function for a syscall number.
func (img *Image) SyscallEntry(nr int) *Func { return img.bySys[nr] }

// FuncAt returns the function containing va.
func (img *Image) FuncAt(va uint64) *Func {
	i := sort.Search(len(img.starts), func(i int) bool { return img.starts[i] > va })
	if i == 0 {
		return nil
	}
	f := img.startFn[i-1]
	if va >= f.End() {
		return nil
	}
	return f
}

// FuncByID returns the function with the given ID.
func (img *Image) FuncByID(id int) *Func {
	if id < 0 || id >= len(img.funcs) {
		return nil
	}
	return img.funcs[id]
}

// Gadgets returns all seeded gadget functions.
func (img *Image) Gadgets() []*Func {
	var out []*Func
	for _, f := range img.funcs {
		if f.Gadget != GadgetNone {
			out = append(out, f)
		}
	}
	return out
}

// GadgetCensus counts gadgets by kind.
func (img *Image) GadgetCensus() (mds, port, cache int) {
	for _, f := range img.funcs {
		switch f.Gadget {
		case GadgetMDS:
			mds++
		case GadgetPort:
			port++
		case GadgetCache:
			cache++
		}
	}
	return
}
