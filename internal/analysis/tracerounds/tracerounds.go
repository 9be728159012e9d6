// Package tracerounds checks the solver's communication layering: the
// iteration loops (loops.go, jacobi*.go) must reach Communicator
// collectives only through the engine's wrapper methods, never through
// the raw e.c field. The wrappers are where per-solve accounting,
// deflation hooks and overlap policy live; a loop that calls
// c.AllReduceSum directly silently bypasses all three, and the per-paper
// reduction-round counts (single-reduction CG, Table 1) drift from the
// implementation.
//
// The wrapper surface is an explicit allowlist — engine.dot, reduce,
// reduceN, and the system implementations' Exchange pass-throughs. Adding a wrapper means adding
// it here; that is the point of the check.
package tracerounds

import (
	"go/ast"

	"tealeaf/internal/analysis"
)

// Analyzer is the tracerounds pass.
var Analyzer = &analysis.Analyzer{
	Name: "tracerounds",
	Doc: "check that solver iteration loops reach Communicator collectives " +
		"only through the engine's traced wrappers",
	Run: run,
}

// collectives are the Communicator methods under the contract. Local
// queries (Rank, Size, Trace, Physical*) are exempt.
var collectives = map[string]bool{
	"Exchange":                 true,
	"Exchange3D":               true,
	"AllReduceSum":             true,
	"AllReduceSum2":            true,
	"AllReduceSumN":            true,
	"AllReduceSumNStart":       true,
	"AllReduceSumNStartTagged": true,
	"AllReduceMax":             true,
	"Barrier":                  true,
	"GatherInterior":           true,
	"GatherInterior3D":         true,
}

// wrappers is the allowed surface: receiver type name → method names
// that may touch the raw Communicator.
var wrappers = map[string][]string{
	"engine": {"dot", "reduce", "reduceN"},
	"sys2d":  {"Exchange"},
	"sys3d":  {"Exchange"},
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathIs(pass.Pkg, "internal/solver") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isWrapper(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.TypesInfo, call)
				if fn == nil || !collectives[fn.Name()] {
					return true
				}
				recv := analysis.RecvTypeOf(pass.TypesInfo, call)
				if recv == nil {
					return true
				}
				named := analysis.NamedOf(recv)
				if named == nil || !analysis.PkgPathIs(named.Obj().Pkg(), "internal/comm") {
					return true
				}
				pass.Reportf(call.Pos(), "direct Communicator %s in the solver: route it through a traced engine wrapper (dot/reduce/reduceN/exchange)", fn.Name())
				return true
			})
		}
	}
	return nil
}

// isWrapper reports whether fd is one of the allowlisted wrapper methods.
func isWrapper(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj := analysis.FuncObject(pass.TypesInfo, fd)
	if obj == nil {
		return false
	}
	_, typeName, ok := analysis.RecvNamed(obj)
	if !ok {
		return false
	}
	for _, m := range wrappers[typeName] {
		if fd.Name.Name == m {
			return true
		}
	}
	return false
}
