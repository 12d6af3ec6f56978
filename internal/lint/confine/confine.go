// Package confine implements the perspective-lint analyzer that keeps the
// simulator's trusted surfaces behind their owners. Each row of the rules
// table names methods or fields that only the row's allowed functions may
// name: the memsim read API on the speculation path, which must consult the
// DSV/ISV check API first, and the two host fast paths — the L0
// line-lookaside micro-caches (internal/cpu/l0.go) and the direct-map
// resolve fast path (memsim.Mem.ResolveFast) — which are exact only while
// confined (DESIGN.md §8, §12).
//
// Names take the shape "pkg.Type.Name": pkg is the last element of the
// import path, and Type is the method's receiver or the struct declaring the
// field, through one pointer. A name counts wherever a selector resolves to
// it — called, taken as a method value or method expression, or read or
// written as a field — and wherever it keys a struct literal, in any
// top-level declaration, var initializers included. A method named through
// an interface counts as each confined method of that name whose type, or a
// pointer to it, implements the interface. A function literal shares the
// standing of the declaration it sits in: a closure inside an allowed
// function is part of it.
package confine

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the confinement check.
var Analyzer = &analysis.Analyzer{
	Name: "confine",
	Doc: "confine the memsim read API on the speculation path, the L0 micro-cache and " +
		"the direct-map resolve fast path to the functions allowed to name them",
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
	// Privilege mirror. ResolveFast's inline privilege check reads kernOK
	// in place of Translator.KernelAllowed, so only the fast path and the
	// two calls that keep it current (SetTranslator, SetKernelMode) touch
	// it. A stale true would let user code read the direct map.
	{
		names:   []string{"memsim.Mem.kernOK"},
		allowed: []string{"memsim.Mem.ResolveFast", "memsim.Mem.SetTranslator", "memsim.Mem.SetKernelMode"},
		format:  "privilege mirror %[2]s touched in %[3]s: Mem.kernOK is private to ResolveFast, SetTranslator and SetKernelMode",
	},
	// Raw fast-path hit. ResolveMiss means "ask the translator", not
	// "fault", so only the two translation front doors, which fall back to
	// the checked walk on a miss, may call ResolveFast: Resolve, and
	// runThreaded's inline fast path. Any other caller silently loses every
	// user, vmalloc and per-cpu translation.
	{
		names:   []string{"memsim.Mem.ResolveFast"},
		allowed: []string{"memsim.Mem.Resolve", "cpu.Core.runThreaded"},
		format:  "%[1]s called in %[3]s outside the translation front doors: a raw fast-path answer without the checked-walk miss fallback silently loses translations; go through Mem.Resolve",
	},
}

// check reports every selector or struct-literal key in pass that names a
// confined method or field of one of rows outside that row's allowed
// functions.
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
	report := func(pos token.Pos, obj types.Object, names ...string) {
		for _, r := range rows {
			for _, name := range names {
				if slices.Contains(r.names, name) && (r.pkgs == nil || slices.Contains(r.pkgs, pkg)) &&
					!slices.Contains(r.allowed, in) {
					pass.Reportf(pos, r.format, name, obj.Name(), in)
				}
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := pass.TypesInfo.Selections[n]
			if sel == nil || sel.Obj().Pkg() == nil {
				return true
			}
			if m, ok := sel.Obj().(*types.Func); ok && types.IsInterface(m.Type().(*types.Signature).Recv().Type()) {
				report(n.Pos(), m, implementers(pass.Pkg, rows, m)...)
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
			report(n.Pos(), sel.Obj(), qualify(sel.Obj(), owner))
		case *ast.CompositeLit:
			// A keyed struct literal names its fields without a selector.
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := pass.TypesInfo.Uses[key].(*types.Var); ok && f.IsField() {
							report(key.Pos(), f, qualify(f, pass.TypesInfo.TypeOf(n)))
						}
					}
				}
			}
		}
		return true
	})
}

// implementers returns the confined names an interface method m can stand
// for: each "pkg.Type.Name" of rows with m's Name whose Type, or a pointer
// to it, implements m's interface. Type is looked up in from and the
// packages it imports, directly or not.
func implementers(from *types.Package, rows []rule, m *types.Func) []string {
	iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []string
	for _, r := range rows {
		for _, name := range r.names {
			parts := strings.Split(name, ".")
			if parts[2] != m.Name() || slices.Contains(out, name) {
				continue
			}
			seen := map[*types.Package]bool{}
			var implements func(p *types.Package) bool
			implements = func(p *types.Package) bool {
				if seen[p] {
					return false
				}
				seen[p] = true
				if tn, ok := p.Scope().Lookup(parts[1]).(*types.TypeName); ok && path.Base(p.Path()) == parts[0] &&
					(types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)) {
					return true
				}
				return slices.ContainsFunc(p.Imports(), implements)
			}
			if implements(from) {
				out = append(out, name)
			}
		}
	}
	return out
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
