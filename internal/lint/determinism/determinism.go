// Package determinism implements the perspective-lint analyzer defending the
// simulator's core guarantee: byte-identical output at any -jobs level. It
// applies to non-test code in internal/ packages and flags the three ambient
// nondeterminism sources that have produced (or nearly produced) flaky grids:
//
//   - wall-clock reads (time.Now, time.Since),
//   - the package-global math/rand source, and randomness seeded from a
//     function call rather than an explicit threaded seed,
//   - iteration over a map whose keys or values escape into ordered output
//     (appended to a slice, printed/written, hashed, sent on a channel, or
//     concatenated into a string).
//
// A map-range that collects into a slice which is sorted later in the same
// function is recognized as the standard sorted-keys idiom (the PR-2
// vmm.MappedUserPages pattern) and not flagged. Anything else needs either a
// fix or an explicit //lint:allow determinism -- <reason> annotation.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand, and map iteration escaping " +
		"into ordered output in internal/ simulator packages",
	Run: run,
}

// seedlessConstructors are the math/rand entry points that take a Source (or
// seed words) rather than drawing from the global source; calling them is
// fine, seeding them from a function call is not.
var seedlessConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	// Scope: the determinism contract covers the simulator's internal/
	// packages; cmd/ tooling (host-side CLIs and reports) is exempt.
	if !strings.Contains(pass.Pkg.Path(), "internal/") {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		checkCalls(pass, file)
		checkMapRanges(pass, file)
	}
	return nil
}

// checkCalls flags wall-clock and global-randomness call sites.
func checkCalls(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(call.Pos(),
					"call to time.%s: wall-clock reads break run-to-run determinism; derive timing from simulated cycles or annotate why host time is safe here",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				return true // *rand.Rand methods on a threaded source are fine
			}
			if !seedlessConstructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"call to %s.%s uses the package-global random source; thread an explicitly seeded *rand.Rand instead",
					fn.Pkg().Name(), fn.Name())
				return true
			}
			if fn.Name() != "New" {
				// A source constructor seeded by a function call (e.g.
				// time.Now().UnixNano()) hides nondeterminism behind an
				// apparently seeded source.
				for _, arg := range call.Args {
					if containsCall(arg) {
						pass.Reportf(call.Pos(),
							"%s.%s seeded from a function call; pass an explicit deterministic seed",
							fn.Pkg().Name(), fn.Name())
						break
					}
				}
			}
		}
		return true
	})
}

// containsCall reports whether expr contains any function call.
func containsCall(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// checkMapRanges finds map-range loops whose iteration order escapes.
// enclosing tracks the innermost function body so the sorted-later idiom can
// be recognized.
func checkMapRanges(pass *analysis.Pass, file *ast.File) {
	var walk func(n ast.Node, funcBody *ast.BlockStmt)
	walk = func(n ast.Node, funcBody *ast.BlockStmt) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncDecl:
				if m.Body != nil {
					walk(m.Body, m.Body)
				}
				return false
			case *ast.FuncLit:
				walk(m.Body, m.Body)
				return false
			case *ast.RangeStmt:
				checkOneRange(pass, m, funcBody)
				// Keep descending: nested ranges are checked on their own.
			}
			return true
		})
	}
	walk(file, nil)
}

// checkOneRange judges a single range statement.
func checkOneRange(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	tainted := loopVars(pass, rs)
	if len(tainted) == 0 {
		return // `for range m`: pure counting is order-insensitive
	}
	propagate(pass, rs.Body, tainted)

	uses := func(e ast.Expr) bool { return usesAny(pass, e, tainted) }
	report := func(pos token.Pos, sink string) {
		pass.Reportf(pos,
			"map iteration order escapes into ordered output (%s); iterate sorted keys (cf. vmm.MappedUserPages) or annotate with a reason",
			sink)
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					if anyUses(pass, n.Args[1:], tainted) && !sortedLater(pass, rs, funcBody, n.Args[0]) {
						report(n.Pos(), "append")
					}
					return true
				}
			}
			fn := analysis.Callee(pass.TypesInfo, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") ||
					strings.HasPrefix(fn.Name(), "Sprint") || strings.HasPrefix(fn.Name(), "Append")) &&
				anyUses(pass, n.Args, tainted) {
				report(n.Pos(), "fmt."+fn.Name())
				return true
			}
			if fn != nil && strings.HasPrefix(fn.Name(), "Write") && analysis.Receiver(fn) != nil &&
				anyUses(pass, n.Args, tainted) {
				report(n.Pos(), fn.Name())
			}
		case *ast.SendStmt:
			if uses(n.Value) {
				report(n.Pos(), "channel send")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if lt := pass.TypesInfo.TypeOf(n.Lhs[0]); lt != nil {
					if b, ok := lt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && uses(n.Rhs[0]) {
						report(n.Pos(), "string concatenation")
					}
				}
			}
		}
		return true
	})
}

// loopVars returns the objects bound by the range's key/value variables.
func loopVars(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	return out
}

// propagate extends the tainted set through simple assignments inside the
// loop body (v2 := f(v) makes v2 order-dependent too), to a fixpoint.
func propagate(pass *analysis.Pass, body *ast.BlockStmt, tainted map[types.Object]bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			rhsTainted := anyUses(pass, as.Rhs, tainted)
			if !rhsTainted {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
}

// usesAny reports whether expr references any tainted object.
func usesAny(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func anyUses(pass *analysis.Pass, exprs []ast.Expr, tainted map[types.Object]bool) bool {
	for _, e := range exprs {
		if usesAny(pass, e, tainted) {
			return true
		}
	}
	return false
}

// sortedLater recognizes the collect-then-sort idiom: the append target is
// passed to a sort/slices ordering function after the range loop in the same
// function body.
func sortedLater(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt, target ast.Expr) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok || funcBody == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		switch name := fn.Name(); {
		case strings.HasPrefix(name, "Sort"), strings.HasPrefix(name, "Slice"),
			name == "Strings", name == "Ints", name == "Float64s", name == "Stable":
		default:
			return true
		}
		for _, arg := range call.Args {
			if usesAny(pass, arg, map[types.Object]bool{obj: true}) {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
