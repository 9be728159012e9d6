// Command tealint runs the repo's static-analysis suite (see
// internal/analysis): poolreentry, protectpanic, detloop and
// tracerounds — the machine-checked forms of the codebase's concurrency
// and determinism contracts.
//
// It speaks cmd/go's unit-checking (vettool) protocol, so the supported
// way to run it over the whole repository is through the build system:
//
//	go build -o tealint ./cmd/tealint
//	go vet -vettool=$(pwd)/tealint ./...
//
// cmd/go then invokes the tool once per package with a JSON config that
// carries the file set and the compiled export data of every import, and
// caches results like any other build step.
//
// Invoked with package patterns instead, it drives `go list -deps
// -export` itself and analyzes the matched packages directly:
//
//	go run ./cmd/tealint ./...
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tealeaf/internal/analysis"
	"tealeaf/internal/analysis/detloop"
	"tealeaf/internal/analysis/load"
	"tealeaf/internal/analysis/poolreentry"
	"tealeaf/internal/analysis/protectpanic"
	"tealeaf/internal/analysis/tracerounds"
)

// suite is the full analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	poolreentry.Analyzer,
	protectpanic.Analyzer,
	detloop.Analyzer,
	tracerounds.Analyzer,
}

func main() {
	args := os.Args[1:]
	// The vettool handshake: cmd/go probes the tool's flags and version
	// (the version feeds the build cache key) before any analysis run.
	for _, a := range args {
		switch a {
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		case "-V=full", "--V=full":
			printVersion()
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVet(args[0])
		return
	}
	runStandalone(args)
}

// printVersion answers cmd/go's -V=full probe in the format its vettool
// buildID parser expects: name, "version", a devel marker, and a buildID
// derived from the tool's own binary so cached vet results invalidate
// when the tool changes.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here (spoofed) buildID=%02x\n", name, h.Sum(nil))
}

// diag is one positioned finding.
type diag struct {
	pos      string // file:line:col, pre-rendered for sorting and output
	analyzer string
	message  string
}

// runSuite applies every analyzer to pkg and returns the findings.
func runSuite(pkg *load.Package) ([]diag, error) {
	if pkg.Types == nil {
		return nil, nil // package reduced to nothing (e.g. all test files)
	}
	var diags []diag
	for _, a := range suite {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, diag{
				pos:      pkg.Fset.Position(d.Pos).String(),
				analyzer: name,
				message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags, nil
}

// runVet is one unit-checking invocation: analyze the single package the
// config describes against export data cmd/go already built.
func runVet(cfgPath string) {
	cfg, err := load.ReadVetConfig(cfgPath)
	if err != nil {
		fatal(err)
	}
	if cfg.VetxOnly {
		// A facts-only dependency visit; the suite keeps no facts.
		if err := cfg.WriteVetx(); err != nil {
			fatal(err)
		}
		return
	}
	pkg, err := cfg.Load()
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			_ = cfg.WriteVetx()
			return
		}
		fatal(err)
	}
	diags, err := runSuite(pkg)
	if err != nil {
		fatal(err)
	}
	if err := cfg.WriteVetx(); err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		printDiags(diags)
		os.Exit(2) // the unitchecker "diagnostics reported" exit status
	}
}

// runStandalone resolves patterns with go list and analyzes each match.
func runStandalone(patterns []string) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := load.FromGoList(".", patterns)
	if err != nil {
		fatal(err)
	}
	var all []diag
	for _, t := range targets {
		pkg, err := t.Load()
		if err != nil {
			fatal(fmt.Errorf("%s: %v", t.ImportPath, err))
		}
		diags, err := runSuite(pkg)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", t.ImportPath, err))
		}
		all = append(all, diags...)
	}
	if len(all) > 0 {
		printDiags(all)
		os.Exit(1)
	}
}

func printDiags(diags []diag) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.pos, d.analyzer, d.message)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tealint:", err)
	os.Exit(1)
}
