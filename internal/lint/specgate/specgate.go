// Package specgate implements the perspective-lint analyzer guarding the
// paper's defense plumbing: in the speculation hot path (the cpu and cache
// packages), simulated memory may only be read through the blessed accessors
// that consult the DSV/ISV check API (Policy.OnTransmit and the security
// checker) before touching state. A new speculation feature that reads
// memsim.Phys or memsim.Mem directly could fill cache lines — the covert
// channel — without the defenses ever seeing the access, silently bypassing
// exactly what the paper evaluates.
//
// Blessed accessors (see DESIGN.md §8 for the completeness argument):
//
//	(*cpu.Core).Run      — the architectural execute loop; every shadowed
//	                       transmitter is routed through Policy.OnTransmit
//	                       before its data read.
//	(*cpu.Core).runThreaded
//	                     — Run's committed-path executor: the same
//	                       obligations, and it never runs inside a
//	                       transient window.
//	(*cpu.Core).specLoad — the single transient-path data accessor; it
//	                       performs the policy check, the wrong-path cache
//	                       fill, and the security-checker report in order.
//	(*cpu.Core).observeTransientLoad
//	                     — the observation-trace recorder's value
//	                       annotation: reached only from specLoad after the
//	                       policy has already allowed the load, so the read
//	                       it performs can never bypass a defense verdict.
package specgate

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the speculation-gate check.
var Analyzer = &analysis.Analyzer{
	Name: "specgate",
	Doc: "flag direct memsim reads in the cpu/cache speculation path outside " +
		"the blessed DSV/ISV-checked accessors",
	Run: run,
}

// specPkgs are the package basenames forming the speculation hot path.
var specPkgs = map[string]bool{"cpu": true, "cache": true}

// readAccessors are the memsim data-read entry points the gate covers,
// keyed by receiver type name.
var readAccessors = map[string]map[string]bool{
	"Phys": {"Read64": true, "Read8": true, "CopyOut": true},
	"Mem":  {"Load": true, "LoadPA": true},
}

// Blessed is the allowlist of functions that may read simulated memory
// directly, as "pkg.Type.Func" (receiver pointer stripped). It is
// deliberately tiny: everything else must route through these.
var Blessed = map[string]bool{
	"cpu.Core.Run": true,
	// runThreaded is Run's committed-path executor, extracted from it. Its
	// loads run the DSV/ISV policy consult before the read, and it never
	// executes inside a transient window (squash windows run on
	// runTransient, whose loads go through specLoad), so its direct read
	// carries exactly Run's check obligations.
	"cpu.Core.runThreaded": true,
	"cpu.Core.specLoad":    true,
	// The obs hook reads the just-allowed load's value for the trace's
	// undigested annotation; specLoad has already run the policy check by
	// the time it is called.
	"cpu.Core.observeTransientLoad": true,
}

func run(pass *analysis.Pass) error {
	parts := strings.Split(pass.Pkg.Path(), "/")
	if !specPkgs[parts[len(parts)-1]] {
		return nil
	}
	pkgBase := parts[len(parts)-1]
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, pkgBase, fd)
		}
	}
	return nil
}

// checkFunc flags denied memsim reads anywhere inside fd (function literals
// inherit their enclosing declaration's standing: a closure inside a blessed
// accessor is part of it).
func checkFunc(pass *analysis.Pass, pkgBase string, fd *ast.FuncDecl) {
	name := pkgBase + "." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			name = pkgBase + "." + id.Name + "." + fd.Name.Name
		}
	}
	if Blessed[name] {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		recv := analysis.Receiver(fn)
		if recv == nil || recv.Obj().Pkg() == nil {
			return true
		}
		rparts := strings.Split(recv.Obj().Pkg().Path(), "/")
		if rparts[len(rparts)-1] != "memsim" {
			return true
		}
		if methods, ok := readAccessors[recv.Obj().Name()]; ok && methods[fn.Name()] {
			pass.Reportf(call.Pos(),
				"direct memsim.%s.%s read in %s outside the blessed accessors: speculative data access must flow through the DSV/ISV-checked API ((*Core).specLoad for transient paths, (*Core).Run for architectural)",
				recv.Obj().Name(), fn.Name(), name)
		}
		return true
	})
}
