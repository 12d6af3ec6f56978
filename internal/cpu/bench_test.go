package cpu

import (
	"testing"

	"repro/internal/bbcache"
	"repro/internal/isa"
)

// benchWorld builds a loop body shaped like a syscall handler's hot
// stretch: ALU work, loads and stores through the direct map, and a
// backward branch. With threaded set, the loop is also pre-decoded for block
// dispatch. Returns the world after one warm run, so the bench loop
// measures a steady-state machine, and the entry VA.
func benchWorld(b *testing.B, threaded bool) (*world, uint64) {
	w := newWorld()
	a := isa.NewAsm()
	a.MovImm(isa.R2, 0)                 // i = 0
	a.MovImm(isa.R3, 100)               // limit
	a.MovImm(isa.R4, int64(dm(0x2000))) // buffer
	a.Label("loop")
	a.Load(isa.R5, isa.R4, 0)   // read
	a.AddImm(isa.R5, isa.R5, 1) // bump
	a.Store(isa.R4, 0, isa.R5)  // write back
	a.AddImm(isa.R2, isa.R2, 1) // i++
	a.Branch(isa.CLT, isa.R2, isa.R3, "loop")
	a.Halt()
	w.code.place(entry, a.MustBuild())
	if threaded {
		base, flat, valid := flatten(w.code)
		prog := bbcache.Build(base, flat, valid, []uint64{entry}, 1)
		if prog.NumBlocks() == 0 {
			b.Fatal("no blocks decoded")
		}
		w.core.SetThreadedSource(func() *bbcache.Program { return prog })
	}
	if res := w.core.Run(entry, 100000); res.Fault || res.Truncated {
		b.Fatalf("warmup run: %+v", res)
	}
	if threaded && w.core.Stats.ThreadedInsts == 0 {
		b.Fatal("block dispatch never ran")
	}
	return w, entry
}

func benchLoop(b *testing.B, threaded bool) {
	w, pc := benchWorld(b, threaded)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res := w.core.Run(pc, 100000)
		if res.Fault {
			b.Fatal("fault")
		}
		insts += res.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkIssueLoop measures single-op dispatch — fetch through the
// CodeSource interface, decode into a one-op block, execute, timing charge —
// over a tight load/store loop. ns/op divided by ~503 retired instructions
// gives the per-instruction host cost.
func BenchmarkIssueLoop(b *testing.B) { benchLoop(b, false) }

// BenchmarkDispatchThreaded runs BenchmarkIssueLoop's program, memory layout
// and warmup through block dispatch of the pre-decoded loop; compare the two
// benchmarks' ns/inst to read off the block-dispatch saving in isolation
// from policy, wrong-path, and kernel effects.
func BenchmarkDispatchThreaded(b *testing.B) { benchLoop(b, true) }

// BenchmarkAccessL0 measures the committed-path data access with the L0
// line-lookaside warm: every access is a micro-cache hit that replays the
// L1-MRU transition via CommitHit. The delta against the same loop with the
// L0 disabled (run it with -l0off via SetL0Enabled in a copy, or compare
// against cache.BenchmarkAccessHot plus the Hierarchy dispatch) is the fast
// path's per-access saving.
func BenchmarkAccessL0(b *testing.B) {
	w := newWorld()
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = 0x4000 + uint64(i)*64
		w.core.l0DataSlow(addrs[i]) // fill L1D and install the entry
	}
	for _, a := range addrs {
		if w.core.l0DataFast(a) < 0 {
			b.Fatal("L0 entry not warm after install")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.core.l0DataFast(addrs[i&63]) < 0 {
			b.Fatal("L0 miss on warm line")
		}
	}
}

// transientWorld is benchWorld's block-dispatch form with a data-dependent
// branch the predictor cannot learn: every iteration loads an irregular
// value and branches on its parity, so mispredicts open transient windows
// throughout and the wrong path replays the pre-decoded DOps.
func transientWorld(b *testing.B) (*world, uint64) {
	w := newWorld()
	for i := uint64(0); i < 128; i++ {
		// Irregular parity stream (multiplicative scramble).
		w.phys.Write64(0x2000+i*8, (i*2654435761)>>3)
	}
	a := isa.NewAsm()
	a.MovImm(isa.R2, 0)
	a.MovImm(isa.R3, 128)
	a.MovImm(isa.R4, int64(dm(0x2000)))
	a.Label("loop")
	a.Mov(isa.R5, isa.R2)
	a.ShlImm(isa.R5, isa.R5, 3)
	a.Add(isa.R5, isa.R5, isa.R4)
	a.Load(isa.R6, isa.R5, 0)
	a.AndImm(isa.R6, isa.R6, 1)
	a.Branch(isa.CNE, isa.R6, isa.R0, "odd")
	a.AddImm(isa.R7, isa.R7, 2)
	a.Label("odd")
	a.AddImm(isa.R2, isa.R2, 1)
	a.Branch(isa.CLT, isa.R2, isa.R3, "loop")
	a.Halt()
	w.code.place(entry, a.MustBuild())
	base, flat, valid := flatten(w.code)
	prog := bbcache.Build(base, flat, valid, []uint64{entry}, 1)
	if prog.NumBlocks() == 0 {
		b.Fatal("no blocks decoded")
	}
	w.core.SetThreadedSource(func() *bbcache.Program { return prog })
	if res := w.core.Run(entry, 100000); res.Fault || res.Truncated {
		b.Fatalf("warmup run: %+v", res)
	}
	if w.core.Stats.TransientInsts == 0 {
		b.Fatal("no transient windows opened: the branch is predictable")
	}
	return w, entry
}

// BenchmarkTransientDecoded measures wrong-path execution with a decoded
// program attached: pre-decoded DOps replayed in transient windows (plus the
// committed work around them). ns/transient-inst isolates the wrong-path engine cost.
func BenchmarkTransientDecoded(b *testing.B) {
	w, pc := transientWorld(b)
	b.ResetTimer()
	var trans uint64
	t0 := w.core.Stats.TransientInsts
	for i := 0; i < b.N; i++ {
		res := w.core.Run(pc, 100000)
		if res.Fault {
			b.Fatal("fault")
		}
	}
	trans = w.core.Stats.TransientInsts - t0
	if trans == 0 {
		b.Fatal("bench loop opened no transient windows")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(trans), "ns/trans-inst")
}
