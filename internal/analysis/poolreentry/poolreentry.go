// Package poolreentry checks the non-reentrancy contract of par.Pool:
// a parallel region's body must never dispatch another region on a pool
// (For/ForReduce*, internal/par/par.go) — the persistent team's dispatch
// lock is held for the whole region, so a nested region deadlocks. The
// check is lexical plus package-local-transitive: anything inside a body
// literal (nested goroutines included, which would race the held region)
// and any package-local function reachable from one may not dispatch.
//
// It also enforces the comm-side half of the contract: package
// internal/comm must not import internal/par at all, so comm's writer and
// accept goroutines can never touch a pool.
package poolreentry

import (
	"go/ast"
	"go/types"
	"strconv"

	"tealeaf/internal/analysis"
)

// Analyzer is the poolreentry pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolreentry",
	Doc: "check that par.Pool parallel regions never dispatch nested regions " +
		"(the persistent team is not reentrant) and that internal/comm never imports internal/par",
	Run: run,
}

// dispatchNames are the region-dispatching methods of par.Pool — the
// wavefront and the lagged bands dispatch the same persistent team and
// are exactly as non-reentrant as the band loops.
var dispatchNames = []string{"For", "ForReduce", "ForReduceN", "Wavefront", "ForBandsReduceN"}

func isDispatch(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || !analysis.IsPkgFunc(fn, "internal/par", dispatchNames...) {
		return false
	}
	_, typeName, ok := analysis.RecvNamed(fn)
	return ok && typeName == "Pool"
}

func run(pass *analysis.Pass) error {
	if analysis.PkgPathIs(pass.Pkg, "internal/par") {
		return nil // the pool's own plumbing
	}
	checkCommImportWall(pass)

	dispatches := summarize(pass)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isDispatch(pass.TypesInfo, call) {
				return true
			}
			// Every function argument runs inside the region (the lagged
			// bands take two: the edge step and the band body).
			for _, arg := range call.Args {
				checkBody(pass, dispatches, arg)
			}
			return true
		})
	}
	return nil
}

// checkBody flags pool dispatches reachable from one region body: direct
// calls anywhere lexically inside it (goroutines included) and calls to
// package-local functions whose transitive closure dispatches.
func checkBody(pass *analysis.Pass, dispatches map[*types.Func]bool, body ast.Expr) {
	switch body := ast.Unparen(body).(type) {
	case *ast.FuncLit:
		ast.Inspect(body.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isDispatch(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(), "Pool dispatch inside a Pool parallel region: the persistent team is not reentrant and this deadlocks")
				return true
			}
			if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg && dispatches[fn.Origin()] {
				pass.Reportf(call.Pos(), "call to %s reaches a Pool dispatch inside a Pool parallel region", fn.Name())
			}
			return true
		})
	default:
		// A named function passed as the region body.
		if fn := funcRef(pass.TypesInfo, body); fn != nil && fn.Pkg() == pass.Pkg && dispatches[fn.Origin()] {
			pass.Reportf(body.Pos(), "%s dispatches on a Pool and is used as a Pool region body: nested regions deadlock", fn.Name())
		}
	}
}

// funcRef resolves an expression naming a function (identifier or
// selector), or nil.
func funcRef(info *types.Info, e ast.Expr) *types.Func {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	fn, _ := obj.(*types.Func)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

// summarize computes which package-local functions (transitively)
// dispatch a pool region.
func summarize(pass *analysis.Pass) map[*types.Func]bool {
	direct := map[*types.Func]bool{}
	callees := map[*types.Func][]*types.Func{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := analysis.FuncObject(pass.TypesInfo, fd)
			if obj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isDispatch(pass.TypesInfo, call) {
					direct[obj] = true
				} else if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], fn.Origin())
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, cs := range callees {
			if direct[caller] {
				continue
			}
			for _, callee := range cs {
				if direct[callee] {
					direct[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

// checkCommImportWall reports any import of internal/par from
// internal/comm.
func checkCommImportWall(pass *analysis.Pass) {
	if !analysis.PkgPathIs(pass.Pkg, "internal/comm") {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "internal/par" || len(path) > len("/internal/par") && path[len(path)-len("/internal/par"):] == "/internal/par" {
				pass.Reportf(imp.Pos(), "internal/comm must not import internal/par: comm goroutines may never touch the non-reentrant pool")
			}
		}
	}
}
