// Package detloop checks bitwise reproducibility of the numeric
// packages: a floating-point fold whose order is not fixed makes the same
// solve produce different last-bit results run to run — and different
// residuals rank to rank, which the convergence checks then disagree on.
// Two such orders are flagged:
//
//   - a `range` over a map whose body folds into a floating-point
//     accumulator declared outside the loop: the summation order follows
//     Go's randomized map iteration. The fix idiom is to extract and sort
//     the keys first (see stats.Trace's report paths) or accumulate
//     per-key into order-independent slots;
//   - a worker-parallel loop body (a function literal passed to
//     par.Pool.For) that folds into a floating-point accumulator declared
//     outside the body: worker interleaving makes the order — and with it
//     the last bits of every reduction — depend on which worker finishes
//     first, exactly the nondeterminism the fixed-order reducers
//     (ForReduce, ForReduceN and ForBandsReduceN, which fold per-band
//     partials in band order) exist to prevent. It is also a data race.
//     Writes through an index expression (y.Data[i] += …) are not flagged
//     there: partitioned element writes over disjoint ranges are the
//     normal sweep pattern and carry no fold order.
//
// The checks apply to the numeric packages: internal/solver, kernels,
// deflate, stencil, precond, and internal/par, whose band-order fold
// and Wavefront schedule live there.
package detloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"tealeaf/internal/analysis"
)

// Analyzer is the detloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "detloop",
	Doc: "check that numeric packages never fold floats over randomized map iteration " +
		"order or into shared accumulators from parallel For bodies (breaks run-to-run and " +
		"rank-to-rank reproducibility); reductions must use the fixed-order reducers",
	Run: run,
}

// numericPackages are the packages under the reproducibility contract.
// internal/par is among them: ForReduceN's band-order fold is a
// floating-point fold whose order IS the determinism guarantee.
var numericPackages = []string{
	"internal/solver",
	"internal/kernels",
	"internal/deflate",
	"internal/stencil",
	"internal/precond",
	"internal/par",
}

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
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						checkFolds(pass, n, n.Body, true, func(name string) string {
							return "floating-point accumulation of " + name + " over randomized map iteration order; sort the keys first"
						})
					}
				}
			case *ast.CallExpr:
				if lit := forBody(pass.TypesInfo, n); lit != nil {
					checkFolds(pass, lit, lit.Body, false, func(name string) string {
						return "floating-point fold of " + name + " inside a parallel For body: the order depends on the pool size; use the fixed-order reducers (ForReduceN/ForBandsReduceN)"
					})
				}
			}
			return true
		})
	}
	return nil
}

// forBody returns the function literal call passes to par.Pool.For, or
// nil.
func forBody(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	if len(call.Args) == 0 {
		return nil
	}
	fn := analysis.Callee(info, call)
	if fn == nil || !analysis.IsPkgFunc(fn, "internal/par", "For") {
		return nil
	}
	if _, typeName, ok := analysis.RecvNamed(fn); !ok || typeName != "Pool" {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	return lit
}

// checkFolds reports each float-typed fold inside body whose target is
// declared outside scope: op-assignments, and x = x + v spelled out.
// viaIndex selects whether a target reached through an index expression
// (x[i]) counts as its base variable.
func checkFolds(pass *analysis.Pass, scope, body ast.Node, viaIndex bool, msg func(name string) string) {
	report := func(lhs ast.Expr) {
		t := pass.TypesInfo.TypeOf(lhs)
		if t == nil {
			return
		}
		if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			return
		}
		obj := rootObject(pass.TypesInfo, lhs, viaIndex)
		if obj == nil || scope.Pos() <= obj.Pos() && obj.Pos() < scope.End() {
			return // declared inside: a per-iteration or body-local value
		}
		pass.Reportf(lhs.Pos(), "%s", msg(obj.Name()))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				report(lhs)
			}
		case token.ASSIGN:
			// x = x + v spelled out: the target reappears on the right.
			for i, lhs := range as.Lhs {
				if i < len(as.Rhs) && refersTo(pass.TypesInfo, as.Rhs[i], rootObject(pass.TypesInfo, lhs, viaIndex)) {
					report(lhs)
				}
			}
		}
		return true
	})
}

// rootObject resolves the variable at the base of an assignable
// expression (x, x.f, *x, combinations), or nil. A path through an index
// expression (x[i]) resolves to x only when viaIndex is set.
func rootObject(info *types.Info, e ast.Expr, viaIndex bool) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if !viaIndex {
				return nil
			}
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
