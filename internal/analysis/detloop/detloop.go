// Package detloop checks bitwise reproducibility of the numeric
// packages: ranging over a map in floating-point accumulation makes the
// summation order follow Go's randomized map iteration, so the same
// solve produces different last-bit results run to run — and different
// residuals rank to rank, which the convergence checks then disagree on.
//
// The check applies to the numeric packages (internal/solver, kernels,
// deflate, stencil, precond, and internal/par, whose ForReduceN fold
// and Wavefront schedule live there): a `range` over a map whose
// body folds into a floating-point accumulator declared outside the loop
// is flagged. The fix idiom is to extract and sort the keys first (see
// stats.Trace's report paths) or accumulate per-key into
// order-independent slots, as ForReduceN does with its per-band
// partial table.
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
	Doc: "check that numeric packages never fold floats over randomized " +
		"map iteration order (breaks run-to-run and rank-to-rank reproducibility)",
	Run: run,
}

// numericPackages are the packages under the reproducibility contract.
// internal/par is among them: ForTilesReduceN's fold is a floating-point
// fold whose order IS the determinism guarantee.
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
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.TypeOf(rng.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rng)
			return true
		})
	}
	return nil
}

// checkMapRange flags floating-point folds inside one map-range body.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				reportAccum(pass, rng, lhs)
			}
		case token.ASSIGN:
			// x = x + v spelled out: the target reappears on the right.
			for i, lhs := range as.Lhs {
				if i < len(as.Rhs) && refersTo(pass.TypesInfo, as.Rhs[i], rootObject(pass.TypesInfo, lhs)) {
					reportAccum(pass, rng, lhs)
				}
			}
		}
		return true
	})
}

// reportAccum reports lhs if it is a float-typed accumulator that
// outlives the map range (declared outside the whole range statement).
func reportAccum(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr) {
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	obj := rootObject(pass.TypesInfo, lhs)
	if obj == nil || rng.Pos() <= obj.Pos() && obj.Pos() < rng.End() {
		return // per-iteration value: order cannot matter
	}
	pass.Reportf(lhs.Pos(), "floating-point accumulation of %s over randomized map iteration order; sort the keys first", obj.Name())
}

// rootObject resolves the variable at the base of an assignable
// expression (x, x.f, x[i], combinations), or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
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
