// Package tileorder checks the deterministic-reduction contract of the
// band-split sweeps: a worker-parallel loop body (par.Pool.For or
// ForTiles) must never fold floating-point values into an accumulator
// declared outside the body. Worker interleaving makes such a fold's
// order — and with it the last bits of every reduction — depend on
// which worker finishes first, exactly the nondeterminism the
// fixed-order reducers (ForReduce/ForReduceN and ForTilesReduceN, which
// fold per-band partials in band order) exist to prevent. It is also a
// data race.
//
// Writes through an index expression (y.Data[i] += …) are not flagged:
// partitioned element writes over disjoint ranges are the normal sweep
// pattern and carry no fold order.
package tileorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"tealeaf/internal/analysis"
)

// Analyzer is the tileorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "tileorder",
	Doc: "check that parallel For/ForTiles bodies never fold floats into shared " +
		"accumulators (pool-size-dependent order); reductions must use the fixed-order reducers",
	Run: run,
}

// numericPackages are the packages under the determinism contract — the
// same set detloop covers.
var numericPackages = []string{
	"internal/solver",
	"internal/kernels",
	"internal/deflate",
	"internal/stencil",
	"internal/precond",
}

// loopNames are the non-reducing parallel dispatchers: any fold inside
// their bodies bypasses the fixed-order reducers.
var loopNames = []string{"For", "ForTiles"}

func run(pass *analysis.Pass) error {
	covered := false
	for _, p := range numericPackages {
		if analysis.PkgPathIs(pass.Pkg, p) {
			covered = true
			break
		}
	}
	if !covered {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || !analysis.IsPkgFunc(fn, "internal/par", loopNames...) {
				return true
			}
			if _, typeName, ok := analysis.RecvNamed(fn); !ok || typeName != "Pool" {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				checkBody(pass, fn.Name(), lit)
			}
			return true
		})
	}
	return nil
}

// checkBody flags float folds into body-external scalars anywhere inside
// one parallel body literal.
func checkBody(pass *analysis.Pass, loop string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				reportFold(pass, loop, lit, lhs)
			}
		case token.ASSIGN:
			// x = x + v spelled out: the target reappears on the right.
			for i, lhs := range as.Lhs {
				if i < len(as.Rhs) && refersTo(pass.TypesInfo, as.Rhs[i], scalarRoot(pass.TypesInfo, lhs)) {
					reportFold(pass, loop, lit, lhs)
				}
			}
		}
		return true
	})
}

// reportFold reports lhs if it is a float-typed scalar (no indexing on
// the path) declared outside the body literal.
func reportFold(pass *analysis.Pass, loop string, lit *ast.FuncLit, lhs ast.Expr) {
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	obj := scalarRoot(pass.TypesInfo, lhs)
	if obj == nil || lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
		return // body-local partial (or indexed element write): no shared fold
	}
	pass.Reportf(lhs.Pos(),
		"floating-point fold of %s inside a parallel %s body: the order depends on the pool size; use the fixed-order reducers (ForReduceN/ForTilesReduceN)",
		obj.Name(), loop)
}

// scalarRoot resolves the variable at the base of an assignable
// expression (x, x.f, combinations), or nil — and nil for any path
// through an index expression, which is a partitioned element write,
// not a scalar fold.
func scalarRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// refersTo reports whether obj is used anywhere inside e.
func refersTo(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
