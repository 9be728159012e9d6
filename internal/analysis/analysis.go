// Package analysis is a small, dependency-free core for the repo's custom
// static analyzers (the tealint suite). It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function over a
// type-checked Pass and reports position-anchored Diagnostics — but is
// built on the standard library only, so the suite carries no module
// dependencies and builds wherever the repo builds.
//
// The suite exists because the codebase's concurrency and determinism
// contracts live in prose: "par.Pool regions never dispatch nested
// regions", "*TCPError panics only under comm.Protect",
// "no order-nondeterministic iteration feeding float accumulation in the
// numerics packages", and "solver loops reach the Communicator only
// through the traced engine wrappers". Each analyzer turns one of those
// rules into a machine-checked CI gate (cmd/tealint, run via
// `go vet -vettool`).
//
// Analyzers here see one package at a time (files, *types.Package,
// *types.Info) and have no cross-package fact store; every contract in
// the suite is checkable from a single package plus the type information
// of its imports, which the drivers in internal/analysis/load provide.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (the tealint diagnostic
// prefix), a doc string, and the Run function applied to each package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the tealint
	// command line. It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's help text: first line is a summary, the rest
	// describes the contract it enforces.
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Report. A non-nil error aborts the whole tealint run — it is
	// for analyzer bugs, not for findings.
	Run func(pass *Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax. Drivers exclude *_test.go files:
	// the suite's contracts guard production solver paths, and a test may
	// break one on purpose to probe the runtime behaviour it pins.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. Drivers aggregate and position them.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
