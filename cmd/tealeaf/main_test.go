package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tealeaf/internal/deck"
)

// docFlagNames returns the flag names the `tealeaf` flag table in
// docs/deck-format.md documents (without the dash). A combined row such
// as `-px/-py/-pz N` names each of its flags.
func docFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/deck-format.md")
	if err != nil {
		t.Fatalf("reading docs/deck-format.md: %v", err)
	}
	_, section, ok := strings.Cut(string(doc), "## `tealeaf` flags")
	if !ok {
		t.Fatal("docs/deck-format.md has no `tealeaf` flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[^` ]+)[ `]").FindAllStringSubmatch(section, -1) {
		for _, f := range strings.Split(m[1], "/") {
			names[strings.TrimPrefix(f, "-")] = true
		}
	}
	return names
}

// TestFlagTableDocumented is the docs-freshness check for the tealeaf
// flags: docs/deck-format.md's table must document exactly the flags
// tealeaf registers on flag.CommandLine.
func TestFlagTableDocumented(t *testing.T) {
	documented := docFlagNames(t)
	if len(documented) < 19 {
		t.Fatalf("only %d documented flags found; the table parse looks broken", len(documented))
	}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // registered by the testing package, not by tealeaf
		}
		if !documented[f.Name] {
			t.Errorf("docs/deck-format.md has no row for flag -%s", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("docs/deck-format.md documents flag -%s, which tealeaf does not declare", name)
	}
}

// TestOutputFlagsRejectedIn3D: -ascii, -ppm and -vtk have 2D writers
// only, so a dims=3 run rejects each of them by name before any rank
// starts, and a 2D run accepts them.
func TestOutputFlagsRejectedIn3D(t *testing.T) {
	for _, tc := range []struct {
		dims     int
		ascii    bool
		ppm, vtk string
		want     string // "" = accepted
	}{
		{dims: 3, ascii: true, want: "-ascii"},
		{dims: 3, ppm: "t.ppm", want: "-ppm"},
		{dims: 3, vtk: "t.vtk", want: "-vtk"},
		{dims: 3},
		{dims: 2, ascii: true, ppm: "t.ppm", vtk: "t.vtk"},
		{dims: 0, ascii: true, ppm: "t.ppm", vtk: "t.vtk"},
	} {
		d := deck.Default()
		d.Dims = tc.dims
		err := check2DOutputs(d, tc.ascii, tc.ppm, tc.vtk)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", tc, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v does not name %s", tc, err, tc.want)
		}
	}
}

// runTealeaf runs the command on args with every tealeaf flag first put
// back to its default, as a fresh process would have them.
func runTealeaf(t *testing.T, args ...string) error {
	t.Helper()
	defer func(args []string) { os.Args = args }(os.Args)
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			if err := f.Value.Set(f.DefValue); err != nil {
				t.Fatal(err)
			}
		}
	})
	os.Args = append([]string{"tealeaf"}, args...)
	return run()
}

// TestCGHaloDepthRejected: -halo-depth is PPCG's inner matrix-powers
// depth, so a cg run given one above 1 fails deck validation, naming the
// key, before any rank starts.
func TestCGHaloDepthRejected(t *testing.T) {
	err := runTealeaf(t, "-solver", "cg", "-halo-depth", "3", "-mesh", "16", "-steps", "1", "-quiet")
	if err == nil || !strings.Contains(err.Error(), "tl_ppcg_halo_depth 3 is PPCG's inner matrix-powers depth") {
		t.Fatalf("tealeaf -solver cg -halo-depth 3: err = %v, want the PPCG-only halo depth error", err)
	}
}

// TestSolverFlagOverDeckFileDepth: the halo depth is checked against the
// solver after the flags are applied, so -solver ppcg, under each of its
// names, runs a CG deck file that sets tl_ppcg_halo_depth, while the deck
// file alone is refused.
func TestSolverFlagOverDeckFileDepth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cg-depth.in")
	in := "*tea\nx_cells=16\ny_cells=16\nend_step=1\ntl_use_cg\ntl_ppcg_halo_depth=3\n" +
		"state 1 density=1 energy=1\nstate 2 density=2 energy=3 geometry=rectangle xmin=0 xmax=5 ymin=0 ymax=5\n*endtea\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ppcg", "cppcg", "tl_use_ppcg"} {
		if err := runTealeaf(t, "-solver", name, "-quiet", path); err != nil {
			t.Errorf("tealeaf -solver %s over a CG deck with tl_ppcg_halo_depth=3: %v", name, err)
		}
	}
	if err := runTealeaf(t, "-quiet", path); err == nil || !strings.Contains(err.Error(), "tl_ppcg_halo_depth 3 is PPCG's inner matrix-powers depth") {
		t.Errorf("tealeaf over a CG deck with tl_ppcg_halo_depth=3: err = %v, want the PPCG-only halo depth error", err)
	}
}
