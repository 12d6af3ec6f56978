// Package confine implements the perspective-lint analyzer that keeps the
// simulator's trusted surfaces behind their owners. Each row of the rules
// table names methods or fields that only the row's allowed functions may
// name: the memsim read API on the speculation path, which must consult the
// DSV/ISV check API first, and the two host fast paths — the L0
// line-lookaside micro-caches (internal/cpu/l0.go) and the epoch-guarded
// resolve lookaside (internal/memsim/lookaside.go) — which are exact only
// while confined (DESIGN.md §8, §12).
//
// Names take the shape "pkg.Type.Name": pkg is the last element of the
// import path, and Type is the method's receiver or the struct declaring the
// field, through one pointer. A name counts wherever a selector resolves to
// it — called, taken as a method value or method expression, or read or
// written as a field — in any top-level declaration, var initializers
// included. A function literal shares the standing of the declaration it
// sits in: a closure inside an allowed function is part of it.
package confine

import (
	"go/ast"
	"go/types"
	"path"
	"slices"

	"repro/internal/lint/analysis"
)

// Analyzer is the confinement check.
var Analyzer = &analysis.Analyzer{
	Name: "confine",
	Doc: "confine the memsim read API on the speculation path, the L0 micro-cache and " +
		"the resolve lookaside to the functions allowed to name them",
	Run: func(pass *analysis.Pass) error {
		check(pass, rules)
		return nil
	},
}

// rule confines names to the functions in allowed.
type rule struct {
	names   []string // confined methods and fields, as "pkg.Type.Name"
	pkgs    []string // packages the row checks; nil checks every package
	allowed []string // functions that may name them, as "pkg.Type.Func"
	// format renders a finding from the confined name, its bare Name and
	// the function naming it, as %[1]s, %[2]s and %[3]s.
	format string
}

// rules is the confinement table, one row per rule; the comment above each
// row gives the reason the rule exists.
var rules = []rule{
	// Speculation gate. On the speculation path, simulated memory is read
	// only through accessors that consult the DSV/ISV check API
	// (Policy.OnTransmit and the security checker) before touching state. A
	// new speculation feature reading memsim.Phys or memsim.Mem directly
	// could fill cache lines — the covert channel — without the defenses
	// ever seeing the access. Writes and Resolve are not gated: transient
	// stores never reach simulated memory, and translation is not a
	// transmitter in this model. Outside cpu and cache (vmm's page-table
	// walk, say) architectural code reads physical memory by design.
	//   - runThreaded is the committed-path executor: its loads run the
	//     policy consult before the read, and it never executes inside a
	//     transient window (squash windows run on runTransient, whose loads
	//     go through specLoad).
	//   - specLoad is the single transient-path data accessor: policy
	//     check, wrong-path cache fill, security-checker report, in order.
	//   - observeTransientLoad annotates the observation trace with the
	//     loaded value; it is reached only from specLoad after the policy
	//     has allowed the load.
	{
		names:   []string{"memsim.Phys.Read64", "memsim.Phys.Read8", "memsim.Phys.CopyOut", "memsim.Mem.Load", "memsim.Mem.LoadPA"},
		pkgs:    []string{"cpu", "cache"},
		allowed: []string{"cpu.Core.runThreaded", "cpu.Core.specLoad", "cpu.Core.observeTransientLoad"},
		format:  "direct %[1]s read in %[3]s outside the blessed accessors: speculative data access must flow through the DSV/ISV-checked API ((*Core).specLoad for transient paths, (*Core).runThreaded for committed ones)",
	},
	// L0 re-hit API. CommitHit mutates cache state on the caller's claim
	// that a generation-checked entry is valid, and MRUSlot hands out the
	// slot it re-hits; a caller outside the L0 accessors has no such proof.
	// GenAt is not gated: a pure observation can neither mutate cache state
	// nor bypass a policy check.
	{
		names:   []string{"cache.Cache.CommitHit", "cache.Cache.MRUSlot"},
		allowed: []string{"cpu.Core.l0DataFast", "cpu.Core.l0DataSlow", "cpu.Core.l0Inst", "cpu.Core.l0InstInstall"},
		format:  "%[1]s called in %[3]s outside the L0 accessors: the slot re-hit API replays a committed hit on the caller's generation proof and is confined to internal/cpu/l0.go",
	},
	// L0 accessors. The micro-cache bypasses Hierarchy.AccessData and
	// AccessInst, and with them specLoad's policy consult, so only the
	// committed path (runThreaded for loads and stores, fetchTimingLine for
	// instruction fetch) may consult it. A transient path reaching the L0
	// would route a wrong-path access around the DSV/ISV defenses, and would
	// apply the wrong LRU transition besides (transient fills defer theirs).
	{
		names:   []string{"cpu.Core.l0DataFast", "cpu.Core.l0DataSlow", "cpu.Core.l0Inst", "cpu.Core.l0InstInstall"},
		allowed: []string{"cpu.Core.runThreaded", "cpu.Core.fetchTimingLine"},
		format:  "L0 accessor %[2]s called in %[3]s outside the committed path: wrong-path accesses must take the full hierarchy through the DSV/ISV-checked specLoad, never the micro-cache",
	},
	// L0 state. Only the accessors and the SetL0Enabled lifecycle switch
	// touch the tables, so no new code path can consult or populate them ad
	// hoc.
	{
		names:   []string{"cpu.Core.l0d", "cpu.Core.l0i", "cpu.Core.l0off"},
		allowed: []string{"cpu.Core.l0DataFast", "cpu.Core.l0DataSlow", "cpu.Core.l0Inst", "cpu.Core.l0InstInstall", "cpu.Core.SetL0Enabled"},
		format:  "L0 micro-cache state %[2]s touched in %[3]s: the tables are private to the accessors in internal/cpu/l0.go and SetL0Enabled",
	},
	// Epoch. The resolve lookaside re-validates a cached translation with
	// one compare against the machine-wide translation epoch, so the epoch is
	// bumped exactly where the kernel mutates a translation (Vmalloc, Vfree,
	// MapPerCPU, bumpEpoch) and escapes only through the two pointer
	// accessors memsim snapshots at install time (EpochPtr,
	// TranslationEpoch). A write anywhere else either stalls the epoch, so
	// stale entries survive a remap, or bumps it spuriously. Kmaps.Clone
	// never names the field: a clone is a fresh machine with its own
	// generation.
	{
		names:   []string{"vmm.Kmaps.epoch"},
		allowed: []string{"vmm.Kmaps.EpochPtr", "vmm.Kmaps.Vmalloc", "vmm.Kmaps.Vfree", "vmm.Kmaps.MapPerCPU", "vmm.AddrSpace.bumpEpoch", "vmm.AddrSpace.TranslationEpoch"},
		format:  "%[1]s touched in %[3]s: the translation generation is bumped only by the vmm mutators and read only through EpochPtr/TranslationEpoch; a stray access desynchronizes every installed lookaside",
	},
	// Lookaside state. Only the accessors in lookaside.go, and the
	// VerifyLookaside oracle, touch the table; new code populating or
	// consulting it ad hoc would skip the generation and privilege checks
	// they encode.
	{
		names:   []string{"memsim.Mem.lk", "memsim.Mem.trGen", "memsim.Mem.kernOK"},
		allowed: []string{"memsim.Mem.ResolveFast", "memsim.Mem.lkInstall", "memsim.Mem.SetTranslator", "memsim.Mem.SetKernelMode", "memsim.Mem.VerifyLookaside"},
		format:  "lookaside state %[2]s touched in %[3]s: the Mem.lk/trGen/kernOK surface is private to the blessed accessors in internal/memsim/lookaside.go",
	},
	// Raw lookaside hit. Only the two translation front doors pair the raw
	// hit with the checked-walk fallback and lkInstall on a miss: Resolve,
	// and runThreaded's inline fast path. Any other caller silently loses
	// translations.
	{
		names:   []string{"memsim.Mem.ResolveFast"},
		allowed: []string{"memsim.Mem.Resolve", "cpu.Core.runThreaded"},
		format:  "%[1]s called in %[3]s outside the translation front doors: a raw lookaside hit without the checked-walk miss fallback silently loses translations; go through Mem.Resolve",
	},
}

// check reports every selector in pass that names a confined method or
// field of one of rows outside that row's allowed functions.
func check(pass *analysis.Pass, rows []rule) {
	pkg := path.Base(pass.Pkg.Path())
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				walk(pass, pkg, rows, d, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						walk(pass, pkg, rows, vs, vs.Names[0])
					}
				}
			}
		}
	}
}

// walk checks the declaration root of the function or variable id.
func walk(pass *analysis.Pass, pkg string, rows []rule, root ast.Node, id *ast.Ident) {
	in := qualify(pass.TypesInfo.Defs[id], nil)
	ast.Inspect(root, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pass.TypesInfo.Selections[se]
		if sel == nil || sel.Obj().Pkg() == nil {
			return true
		}
		// A promoted field belongs to the embedded struct its path ends in.
		owner := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := owner.Underlying().(*types.Pointer); ok {
				owner = p.Elem()
			}
			owner = owner.Underlying().(*types.Struct).Field(i).Type()
		}
		name := qualify(sel.Obj(), owner)
		for _, r := range rows {
			if slices.Contains(r.names, name) && (r.pkgs == nil || slices.Contains(r.pkgs, pkg)) &&
				!slices.Contains(r.allowed, in) {
				pass.Reportf(se.Pos(), r.format, name, sel.Obj().Name(), in)
			}
		}
		return true
	})
}

// qualify renders obj as "pkg.Type.Name". Type is a method's receiver, else
// owner, through one pointer; it is left out when neither is a named type.
func qualify(obj types.Object, owner types.Type) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		owner = sig.Recv().Type()
	}
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	name := path.Base(obj.Pkg().Path()) + "."
	if n, ok := owner.(*types.Named); ok {
		name += n.Obj().Name() + "."
	}
	return name + obj.Name()
}
