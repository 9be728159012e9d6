// Package analysistest runs a tealint analyzer over GOPATH-style testdata
// source trees and checks its diagnostics against // want comments, the
// same convention as golang.org/x/tools/go/analysis/analysistest:
//
//	t.Barrier() // want `Barrier can panic with \*TCPError`
//
// A want comment holds one or more quoted Go string literals, each a
// regular expression; the analyzer must report exactly one diagnostic on
// that line per pattern, and every diagnostic must be matched by some
// pattern. Testdata packages live under testdata/src/<import path>/ and
// may import each other by that path (stub comm/par packages mirror the
// real module layout), but not the standard library — the harness is
// hermetic and type-checks everything from the tree itself.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tealeaf/internal/analysis"
	"tealeaf/internal/analysis/load"
)

// TestData returns the analyzer package's testdata root (by convention,
// ./testdata relative to the test).
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// Run loads each package path from testdata/src and applies the analyzer,
// comparing reported diagnostics against the tree's // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			t.Helper()
			runOne(t, testdata, a, path)
		})
	}
}

type key struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, path string) {
	t.Helper()
	si := &load.SrcImporter{Root: filepath.Join(testdata, "src"), Fset: token.NewFileSet()}
	pkg, err := load.Dir(si, path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{file: filepath.Base(pos.Filename), line: pos.Line}
		exps := wants[k]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", a.Name, pos, d.Message)
		}
	}
	for k, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, k.file, k.line, e.re)
			}
		}
	}
}

// wantRE extracts the quoted patterns of a want comment: every Go string
// literal (interpreted or raw) after the word "want".
var wantRE = regexp.MustCompile("// want ((\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)( +(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))*)")

var litRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(pkg *load.Package) (map[key][]*expectation, error) {
	wants := map[key][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "want ") && strings.Contains(c.Text, "//") && strings.Contains(c.Text, `"`) {
						return nil, fmt.Errorf("malformed want comment %q", c.Text)
					}
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{file: filepath.Base(pos.Filename), line: pos.Line}
				for _, lit := range litRE.FindAllString(m[1], -1) {
					var pat string
					if lit[0] == '`' {
						pat = lit[1 : len(lit)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(lit)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want literal %s: %v", pos, lit, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], &expectation{re: re})
				}
			}
		}
	}
	return wants, nil
}
