// Package splitreduce checks the split-phase reduction contract of
// comm.AllReduceSumNStart: at most one reduction may be in flight per
// rank AND TAG, its handle's Finish must run on every control-flow path
// (early error returns included) before the function returns or the next
// same-tag reduction begins, and no blocking collective may run between
// Start and Finish. The pipelined CG engine (Ghysels–Vanroose,
// solver/loops.go) is the contract's main client: its overlapped round
// is posted before the speculative matvec and finished after it, and an
// exchange failure in between is exactly the kind of path that leaks a
// round and desynchronises every later collective on the communicator.
//
// A handle's Finish obligation leaves the frame only by returning the
// handle (a Start wrapper); a handle stored anywhere else, a struct
// field included, must still be finished in the frame that started it.
package splitreduce

import (
	"go/ast"
	"go/token"
	"go/types"

	"tealeaf/internal/analysis"
)

// Analyzer is the splitreduce pass.
var Analyzer = &analysis.Analyzer{
	Name: "splitreduce",
	Doc: "check that every split-phase reduction (AllReduceSumNStart) is finished exactly once on all control-flow paths, " +
		"with no other collective in between",
	Run: run,
}

// blockingCollectives are the comm.Communicator operations that may not
// run while a split-phase reduction is in flight (halo exchanges are
// explicitly allowed — overlapping them is the point of the split).
var blockingCollectives = []string{
	"AllReduceSum", "AllReduceSum2", "AllReduceSumN", "AllReduceMax",
	"Barrier", "GatherInterior", "GatherInterior3D",
}

func run(pass *analysis.Pass) error {
	// The comm backends themselves implement the rounds; their internals
	// legitimately compose partial phases.
	if analysis.PkgPathIs(pass.Pkg, "internal/comm") {
		return nil
	}
	c := &checker{pass: pass, summaries: summarize(pass)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Type, fd.Body)
			}
		}
	}
	return nil
}

// isReduceHandle reports whether t is (or points to) the comm
// ReduceHandle interface — the type whose presence marks a value as an
// in-flight split-phase round.
func isReduceHandle(t types.Type) bool {
	n := analysis.NamedOf(t)
	return n != nil && n.Obj().Name() == "ReduceHandle" &&
		n.Obj().Pkg() != nil && analysis.PkgPathIs(n.Obj().Pkg(), "internal/comm")
}

// startsReduction reports whether a call begins a split-phase round: any
// function or method returning a comm.ReduceHandle, which covers the
// Communicator method itself and any wrapper that forwards it (such as
// the solver engine's traced wrapper).
func startsReduction(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isReduceHandle(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isReduceHandle(t)
	}
}

// finishesReduction reports whether a call is ReduceHandle.Finish.
func finishesReduction(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != "Finish" {
		return false
	}
	recv := analysis.RecvTypeOf(info, call)
	return recv != nil && isReduceHandle(recv)
}

// returnsHandle reports whether a function signature hands a
// ReduceHandle to its caller — such functions are wrappers around Start
// and the in-flight obligation transfers with the returned handle.
func returnsHandle(ft *ast.FuncType, info *types.Info) bool {
	if ft == nil || ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if tv, ok := info.Types[field.Type]; ok && isReduceHandle(tv.Type) {
			return true
		}
	}
	return false
}

// summarize computes, for every function declared in this package,
// whether calling it performs a collective (directly or through other
// package-local functions). Wrappers that return a ReduceHandle are
// excluded: their call sites are treated as the Start itself.
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
			if returnsHandle(fd.Type, pass.TypesInfo) {
				continue // Start-wrapper: modelled at call sites instead
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
				if analysis.IsPkgFunc(fn, "internal/comm", blockingCollectives...) ||
					startsReduction(pass.TypesInfo, call) {
					direct[obj] = true
				} else if fn.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], fn.Origin())
				}
				return true
			})
		}
	}
	// Propagate collectiveness through the package-local call graph.
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

// checker walks one function's statements tracking the number of
// split-phase rounds in flight through structured control flow.
type checker struct {
	pass      *analysis.Pass
	summaries map[*types.Func]bool
	// handleOK suppresses the return-in-flight report for Start wrappers.
	handleOK bool
	// entries is the stack of in-flight counts at entry to enclosing
	// breakable statements (loops, switches, selects).
	entries []int
}

func (c *checker) checkFunc(ft *ast.FuncType, body *ast.BlockStmt) {
	saveOK, saveEntries := c.handleOK, c.entries
	c.handleOK = returnsHandle(ft, c.pass.TypesInfo)
	c.entries = nil
	state, terminated := c.stmts(body.List, 0)
	if state > 0 && !terminated && !c.handleOK {
		c.pass.Reportf(body.Rbrace, "function ends with a split-phase reduction in flight; Finish must run on every path")
	}
	c.handleOK, c.entries = saveOK, saveEntries
}

// scanExpr processes the calls inside one expression tree in evaluation
// order, updating and returning the in-flight count. Nested function
// literals are separate scopes checked independently.
func (c *checker) scanExpr(e ast.Expr, state int) int {
	if e == nil {
		return state
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkFunc(n.Type, n.Body)
			return false
		case *ast.CallExpr:
			// Arguments evaluate before the call: recurse first.
			for _, arg := range n.Args {
				state = c.scanExpr(arg, state)
			}
			if fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				state = c.scanExpr(fun.X, state)
			}
			state = c.call(n, state)
			return false
		}
		return true
	})
	return state
}

// call classifies one call expression against the in-flight count.
func (c *checker) call(call *ast.CallExpr, state int) int {
	info := c.pass.TypesInfo
	if finishesReduction(info, call) {
		if state > 0 {
			return state - 1
		}
		// Finishing a handle produced elsewhere (for example received as
		// a parameter) is not checkable package-locally; ignore.
		return 0
	}
	if startsReduction(info, call) {
		if state > 0 {
			c.pass.Reportf(call.Pos(), "split-phase reduction started while another is in flight (contract: at most one per rank)")
			return state
		}
		return state + 1
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return state
	}
	if state > 0 {
		if analysis.IsPkgFunc(fn, "internal/comm", blockingCollectives...) {
			c.pass.Reportf(call.Pos(), "blocking collective %s while a split-phase reduction is in flight", fn.Name())
		} else if c.summaries[fn.Origin()] {
			c.pass.Reportf(call.Pos(), "call to %s performs a collective while a split-phase reduction is in flight", fn.Name())
		}
	}
	return state
}

// stmts walks a statement list from the given in-flight count, returning
// the count at its end and whether the list always terminates (returns,
// panics or branches away).
func (c *checker) stmts(list []ast.Stmt, state int) (int, bool) {
	for _, s := range list {
		var terminated bool
		state, terminated = c.stmt(s, state)
		if terminated {
			return state, true
		}
	}
	return state, false
}

func (c *checker) stmt(s ast.Stmt, state int) (int, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				state = c.scanExpr(s.X, state)
				return state, true // panic terminates; recovery scopes own it
			}
		}
		return c.scanExpr(s.X, state), false
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			state = c.scanExpr(r, state)
		}
		for _, l := range s.Lhs {
			state = c.scanExpr(l, state)
		}
		return state, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						state = c.scanExpr(v, state)
					}
				}
			}
		}
		return state, false
	case *ast.SendStmt:
		state = c.scanExpr(s.Chan, state)
		return c.scanExpr(s.Value, state), false
	case *ast.IncDecStmt:
		return c.scanExpr(s.X, state), false
	case *ast.GoStmt, *ast.DeferStmt:
		// The spawned/deferred call runs outside this flow; its function
		// literal (if any) is its own scope, its arguments evaluate here.
		var call *ast.CallExpr
		if g, ok := s.(*ast.GoStmt); ok {
			call = g.Call
		} else {
			call = s.(*ast.DeferStmt).Call
		}
		for _, arg := range call.Args {
			state = c.scanExpr(arg, state)
		}
		if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			c.checkFunc(fl.Type, fl.Body)
		} else {
			state = c.scanExpr(call.Fun, state)
		}
		return state, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			state = c.scanExpr(r, state)
		}
		if state > 0 && !c.handleOK {
			c.pass.Reportf(s.Pos(), "return with a split-phase reduction in flight; Finish the handle first (error paths included)")
		}
		return state, true
	case *ast.BranchStmt:
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE {
			if n := len(c.entries); n > 0 && state != c.entries[n-1] {
				c.pass.Reportf(s.Pos(), "%s with a split-phase reduction in flight", s.Tok)
			}
		}
		return state, true
	case *ast.BlockStmt:
		return c.stmts(s.List, state)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, state)
	case *ast.IfStmt:
		if s.Init != nil {
			state, _ = c.stmt(s.Init, state)
		}
		state = c.scanExpr(s.Cond, state)
		thenState, thenTerm := c.stmts(s.Body.List, state)
		elseState, elseTerm := state, false
		if s.Else != nil {
			elseState, elseTerm = c.stmt(s.Else, state)
		}
		switch {
		case thenTerm && elseTerm:
			return state, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			if thenState != elseState {
				c.pass.Reportf(s.Pos(), "split-phase reduction in flight on one branch but not the other")
			}
			return max(thenState, elseState), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			state, _ = c.stmt(s.Init, state)
		}
		state = c.scanExpr(s.Cond, state)
		c.pushEntry(state)
		bodyState, bodyTerm := c.stmts(s.Body.List, state)
		if s.Post != nil {
			bodyState, _ = c.stmt(s.Post, bodyState)
		}
		c.popEntry()
		if !bodyTerm && bodyState != state {
			c.pass.Reportf(s.Pos(), "loop iteration leaves a split-phase reduction in flight across iterations")
		}
		return state, false
	case *ast.RangeStmt:
		state = c.scanExpr(s.X, state)
		c.pushEntry(state)
		bodyState, bodyTerm := c.stmts(s.Body.List, state)
		c.popEntry()
		if !bodyTerm && bodyState != state {
			c.pass.Reportf(s.Pos(), "loop iteration leaves a split-phase reduction in flight across iterations")
		}
		return state, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			state, _ = c.stmt(s.Init, state)
		}
		state = c.scanExpr(s.Tag, state)
		return c.caseBodies(s.Pos(), s.Body, state, !hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			state, _ = c.stmt(s.Init, state)
		}
		return c.caseBodies(s.Pos(), s.Body, state, !hasDefault(s.Body))
	case *ast.SelectStmt:
		return c.caseBodies(s.Pos(), s.Body, state, false)
	default:
		return state, false
	}
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// caseBodies merges the exit states of a switch/select's clauses; the
// implicit fall-past path (no matching case, no default) contributes the
// entry state.
func (c *checker) caseBodies(pos token.Pos, body *ast.BlockStmt, state int, implicit bool) (int, bool) {
	c.pushEntry(state)
	defer c.popEntry()
	merged, haveMerged := 0, false
	if implicit {
		merged, haveMerged = state, true
	}
	allTerm := true
	for _, cl := range body.List {
		var stmtsList []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				state = c.scanExpr(e, state)
			}
			stmtsList = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				state, _ = c.stmt(cl.Comm, state)
			}
			stmtsList = cl.Body
		}
		cs, ct := c.stmts(stmtsList, state)
		if ct {
			continue
		}
		allTerm = false
		if !haveMerged {
			merged, haveMerged = cs, true
		} else if cs != merged {
			c.pass.Reportf(pos, "split-phase reduction in flight on one branch but not the other")
		}
	}
	if allTerm && !implicit && len(body.List) > 0 {
		return state, true
	}
	if !haveMerged {
		merged = state
	}
	return merged, false
}

func (c *checker) pushEntry(state int) { c.entries = append(c.entries, state) }
func (c *checker) popEntry()           { c.entries = c.entries[:len(c.entries)-1] }
