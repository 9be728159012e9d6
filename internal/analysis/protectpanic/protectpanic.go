// Package protectpanic checks the error-channel contract of the TCP
// communication backend. The Communicator reduction methods have no error
// return, so *comm.TCP reports transport failures by panicking with a
// *comm.TCPError; (*TCP).Protect and the RunTCP/RunTCP3D harnesses
// recover that panic and convert it back into an ordinary error. Code
// outside internal/comm that holds a concrete *comm.TCP must therefore
// only invoke the panic-capable methods inside such a recovery scope, and
// must not let the concrete value escape into interface-typed calls
// outside one.
//
// A goroutine launched inside a Protect literal is NOT protected —
// recover only intercepts panics on the panicking goroutine — so calls
// inside `go func(){...}` bodies are treated as unprotected even when the
// literal sits lexically inside a Protect scope.
package protectpanic

import (
	"go/ast"
	"go/token"
	"go/types"

	"tealeaf/internal/analysis"
)

// Analyzer is the protectpanic pass.
var Analyzer = &analysis.Analyzer{
	Name: "protectpanic",
	Doc: "check that panic-capable *comm.TCP methods are only reached inside a " +
		"Protect/RunTCP recovery scope and that concrete *comm.TCP values do not escape one",
	Run: run,
}

// panicMethods are the *comm.TCP methods that panic with *TCPError on
// transport failure (the error-free Communicator reduction surface).
var panicMethods = map[string]bool{
	"AllReduceSum":             true,
	"AllReduceSum2":            true,
	"AllReduceSumN":            true,
	"AllReduceSumNStart":       true,
	"AllReduceSumNStartTagged": true,
	"AllReduceMax":             true,
	"Barrier":                  true,
}

// interval is a lexical scope: a protecting literal or a goroutine body.
type interval struct {
	pos, end  token.Pos
	protected bool
}

func run(pass *analysis.Pass) error {
	if analysis.PkgPathIs(pass.Pkg, "internal/comm") {
		return nil // the backend's own implementation
	}
	for _, f := range pass.Files {
		scopes := collectScopes(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkPanicCall(pass, scopes, call)
			checkEscape(pass, scopes, call)
			return true
		})
	}
	return nil
}

// collectScopes gathers the protecting literal ranges (FuncLit arguments
// of Protect/RunTCP/RunTCP3D) and the goroutine-body ranges that cancel
// them for one file.
func collectScopes(pass *analysis.Pass, f *ast.File) []interval {
	var scopes []interval
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned function never inherits the parent's recover.
			// For `go fl()` the cancelled range is the literal body; for
			// `go x.M(...)` the call itself runs on the new goroutine.
			scopes = append(scopes, interval{pos: n.Call.Pos(), end: n.Call.End()})
			for _, arg := range n.Call.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					scopes = append(scopes, interval{pos: fl.Pos(), end: fl.End()})
				}
			}
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				scopes = append(scopes, interval{pos: fl.Pos(), end: fl.End()})
			}
		case *ast.CallExpr:
			if !isProtector(pass.TypesInfo, n) {
				return true
			}
			for _, arg := range n.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					scopes = append(scopes, interval{pos: fl.Pos(), end: fl.End(), protected: true})
				}
			}
		}
		return true
	})
	return scopes
}

// isProtector reports whether call establishes a *TCPError recovery
// scope for its function-literal arguments.
func isProtector(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || !analysis.PkgPathIs(fn.Pkg(), "internal/comm") {
		return false
	}
	switch fn.Name() {
	case "RunTCP", "RunTCP3D":
		_, _, isMethod := analysis.RecvNamed(fn)
		return !isMethod
	case "Protect":
		_, typeName, ok := analysis.RecvNamed(fn)
		return ok && typeName == "TCP"
	}
	return false
}

// protectedAt reports whether pos sits in a recovery scope: the innermost
// enclosing interval must be a protecting literal, not a goroutine body.
func protectedAt(scopes []interval, pos token.Pos) bool {
	innermost := interval{pos: token.NoPos}
	found := false
	for _, s := range scopes {
		if s.pos <= pos && pos < s.end && (!found || s.pos > innermost.pos) {
			innermost, found = s, true
		}
	}
	return found && innermost.protected
}

// isTCP reports whether t is comm.TCP or *comm.TCP.
func isTCP(t types.Type) bool {
	named := analysis.NamedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "TCP" && analysis.PkgPathIs(obj.Pkg(), "internal/comm")
}

// checkPanicCall flags panic-capable method calls on a concrete *TCP
// receiver outside a recovery scope.
func checkPanicCall(pass *analysis.Pass, scopes []interval, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !panicMethods[sel.Sel.Name] {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil || !isTCP(recv) {
		return
	}
	if !protectedAt(scopes, call.Pos()) {
		pass.Reportf(call.Pos(), "(*comm.TCP).%s can panic with *TCPError and is not inside a comm.Protect/RunTCP recovery scope", sel.Sel.Name)
	}
}

// checkEscape flags a concrete *TCP value passed as an interface-typed
// argument outside a recovery scope: the callee will make panic-capable
// calls with no recover in place.
func checkEscape(pass *analysis.Pass, scopes []interval, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || analysis.PkgPathIs(fn.Pkg(), "internal/comm") {
		return // comm's own helpers (Protect, Close, RunTCP wiring) are fine
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break // variadic tail; the slice form is not the escape shape
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || !isTCP(at) {
			continue
		}
		if _, isIface := sig.Params().At(i).Type().Underlying().(*types.Interface); !isIface {
			continue
		}
		if !protectedAt(scopes, arg.Pos()) {
			pass.Reportf(arg.Pos(), "*comm.TCP escapes as an interface argument outside a comm.Protect/RunTCP recovery scope")
		}
	}
}
