// Package l0gate implements the perspective-lint analyzer confining the L0
// line-lookaside micro-caches (internal/cpu/l0.go, DESIGN.md §12) to the
// committed path. The micro-cache bypasses Hierarchy.AccessData/AccessInst —
// and with them the transient-path Policy consult in specLoad — so the whole
// fast path is only sound while three confinement properties hold:
//
//  1. cache.Cache.CommitHit and cache.Cache.MRUSlot (the raw slot re-hit
//     API) are called only from the L0 accessors. CommitHit mutates cache
//     state on the caller's claim that a generation-checked entry is valid;
//     a call from anywhere else has no such proof.
//  2. The L0 accessors themselves are called only from the committed path:
//     runThreaded (loads and stores) and fetchTimingLine. A transient
//     path reaching the L0 would route a wrong-path access around the
//     DSV/ISV defenses — exactly the bypass specgate exists to prevent —
//     and would also apply the wrong LRU transition (transient fills defer
//     their LRU update).
//  3. The micro-cache state (Core.l0d, Core.l0i, Core.l0off) is touched
//     only by those accessors and the SetL0Enabled lifecycle switch, so no
//     new code path can consult or populate the tables ad hoc.
//
// GenAt is deliberately not gated: it is a pure observation (tests and
// differential suites read it freely), and on its own it can neither mutate
// cache state nor bypass a policy check.
package l0gate

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the L0-confinement check.
var Analyzer = &analysis.Analyzer{
	Name: "l0gate",
	Doc: "confine the L0 line-lookaside micro-cache (CommitHit/MRUSlot and the " +
		"Core.l0* state) to the committed-path accessors",
	Run: run,
}

// L0Accessors are the blessed micro-cache accessors in internal/cpu/l0.go,
// as "pkg.Type.Func". Only they may call the cache re-hit API.
var L0Accessors = map[string]bool{
	"cpu.Core.l0DataFast":    true,
	"cpu.Core.l0DataSlow":    true,
	"cpu.Core.l0Inst":        true,
	"cpu.Core.l0InstInstall": true,
}

// CommittedCallers are the committed-path functions allowed to consult the
// L0.
var CommittedCallers = map[string]bool{
	"cpu.Core.runThreaded":     true,
	"cpu.Core.fetchTimingLine": true,
}

// stateOwners may touch the Core.l0d/l0i/l0off state directly: the accessors
// and the lifecycle switch.
var stateOwners = map[string]bool{
	"cpu.Core.SetL0Enabled": true,
}

// rehitAPI is the cache re-hit surface rule 1 confines.
var rehitAPI = map[string]bool{"CommitHit": true, "MRUSlot": true}

// l0State is the micro-cache state surface rule 3 confines.
var l0State = map[string]bool{"l0d": true, "l0i": true, "l0off": true}

func run(pass *analysis.Pass) error {
	parts := strings.Split(pass.Pkg.Path(), "/")
	if parts[len(parts)-1] != "cpu" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// funcName renders fd as "cpu.Type.Func" (receiver pointer stripped), the
// key shape the allowlists use.
func funcName(fd *ast.FuncDecl) string {
	name := "cpu." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			name = "cpu." + id.Name + "." + fd.Name.Name
		}
	}
	return name
}

// checkFunc applies all three confinement rules inside fd. Function literals
// inherit their enclosing declaration's standing.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := funcName(fd)
	isAccessor := L0Accessors[name]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			recv := analysis.Receiver(fn)
			if recv == nil || recv.Obj().Pkg() == nil {
				return true
			}
			rpkg := pkgBase(recv.Obj().Pkg())
			// Rule 1: the cache re-hit API stays inside the accessors.
			if rpkg == "cache" && recv.Obj().Name() == "Cache" && rehitAPI[fn.Name()] && !isAccessor {
				pass.Reportf(n.Pos(),
					"cache.Cache.%s called in %s outside the L0 accessors: the slot re-hit API replays a committed hit on the caller's generation proof and is confined to internal/cpu/l0.go",
					fn.Name(), name)
			}
			// Rule 2: the accessors stay inside the committed path.
			if rpkg == "cpu" && recv.Obj().Name() == "Core" {
				callee := "cpu.Core." + fn.Name()
				if L0Accessors[callee] && !CommittedCallers[name] && !isAccessor {
					pass.Reportf(n.Pos(),
						"L0 accessor %s called in %s outside the committed path: wrong-path accesses must take the full hierarchy through the DSV/ISV-checked specLoad, never the micro-cache",
						fn.Name(), name)
				}
			}
		case *ast.SelectorExpr:
			// Rule 3: the l0 state fields stay inside the accessors and the
			// lifecycle switch.
			if !l0State[n.Sel.Name] || isAccessor || stateOwners[name] {
				return true
			}
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if v, ok := sel.Obj().(*types.Var); ok && v.Pkg() != nil && pkgBase(v.Pkg()) == "cpu" {
				pass.Reportf(n.Pos(),
					"L0 micro-cache state %s touched in %s: the tables are private to the accessors in internal/cpu/l0.go and SetL0Enabled",
					n.Sel.Name, name)
			}
		}
		return true
	})
}

func pkgBase(p *types.Package) string {
	parts := strings.Split(p.Path(), "/")
	return parts[len(parts)-1]
}
