package deck

import (
	"strings"
	"testing"
)

// TestEveryRejectionPath drives every parse- and validation-rejection
// message in the package through ParseString and then Validate at least
// once, asserting on a distinctive fragment of each message so a
// reworded or dead error path fails loudly. The deck snippets are minimal: `base` is the
// smallest accepted deck, and each case perturbs exactly one thing.
func TestEveryRejectionPath(t *testing.T) {
	const base = "state 1 density=1 energy=1\n"
	deck := func(lines ...string) string {
		return "*tea\n" + strings.Join(lines, "\n") + "\n*endtea\n"
	}
	cases := []struct {
		name string
		in   string
		want string // substring of the error message
	}{
		// Parse-level structure.
		{"no tea block", "x_cells=10\n", "no *tea block"},
		{"unknown option", deck(base, "frobnicate=3"), `unknown option "frobnicate"`},
		{"unknown option reports line", "*tea\nstate 1 density=1 energy=1\nfrobnicate=3\n*endtea\n", "line 3"},
		{"bad int value", deck(base, "x_cells=many"), "invalid syntax"},
		{"bad float value", deck(base, "tl_eps=tiny"), "invalid syntax"},
		{"float overflow", deck(base, "tl_eps=1e999"), "value out of range"},

		// State-line parsing.
		{"malformed state line", deck("statex=1"), "malformed state line"},
		{"bad state index", deck("state one density=1 energy=1"), "state index"},
		{"malformed attribute", deck("state 1 density"), `malformed attribute "density"`},
		{"unknown geometry", deck(base, "state 2 density=1 energy=1 geometry=hexagon"), `unknown geometry "hexagon"`},
		{"unknown attribute", deck(base, "state 2 density=1 energy=1 wobble=2"), `unknown attribute "wobble"`},
		{"bad attribute float", deck("state 1 density=heavy energy=1"), "invalid syntax"},

		// Validate: dimensionality and mesh.
		{"bad dims", deck(base, "dims=4"), "dims must be 2 or 3"},
		{"zero x cells", deck(base, "x_cells=0"), "cell counts must be positive"},
		{"negative y cells", deck(base, "y_cells=-3"), "cell counts must be positive"},
		{"zero z cells 3d", deck(base, "dims=3", "z_cells=0"), "z_cells must be positive"},

		// Validate: extents and non-finite parameters.
		{"nan extent", deck(base, "xmax=nan"), "domain extents must be finite"},
		{"inf extent", deck(base, "ymin=-inf"), "domain extents must be finite"},
		{"nan timestep", deck(base, "initial_timestep=nan"), "initial_timestep, end_time and tl_eps must be finite"},
		{"inf end time", deck(base, "end_time=inf"), "initial_timestep, end_time and tl_eps must be finite"},
		{"nan eps", deck(base, "tl_eps=nan"), "initial_timestep, end_time and tl_eps must be finite"},
		{"empty x extent", deck(base, "xmin=5", "xmax=5"), "domain extents must be non-empty"},
		{"inverted y extent", deck(base, "ymin=2", "ymax=1"), "domain extents must be non-empty"},
		{"empty z extent 3d", deck(base, "dims=3", "zmin=1", "zmax=1"), "z extents must be non-empty"},

		// Validate: time stepping and solver controls.
		{"zero timestep", deck(base, "initial_timestep=0"), "initial_timestep must be positive"},
		{"no horizon", deck(base, "end_time=0", "end_step=0"), "need end_time or end_step"},
		{"zero eps", deck(base, "tl_eps=0"), "tl_eps must be positive"},
		{"zero halo depth", deck(base, "halo_depth=0"), "halo depth must be >= 1"},
		{"no states", deck("x_cells=8"), "need at least one state"},

		// Validate only, after parsing: the halo depth against the solver.
		{"cg halo depth", deck(base, "tl_use_cg", "tl_ppcg_halo_depth=3"), "tl_ppcg_halo_depth 3 is PPCG's inner matrix-powers depth"},
		{"chebyshev halo depth", deck(base, "tl_use_chebyshev", "halo_depth=2"), "tl_ppcg_halo_depth 2 is PPCG's inner matrix-powers depth"},
		{"jacobi halo depth", deck(base, "tl_use_jacobi", "tl_ppcg_halo_depth=4"), "tl_ppcg_halo_depth 4 is PPCG's inner matrix-powers depth"},

		// Validate: deflation geometry.
		{"zero deflation blocks", deck(base, "tl_use_deflation", "tl_deflation_blocks=0"),
			"tl_deflation_blocks must be >= 1"},
		{"deflation blocks exceed mesh", deck(base, "x_cells=4", "y_cells=4", "tl_use_deflation"),
			"exceeds the mesh"},
		{"deflation blocks exceed z mesh", deck(base, "dims=3", "x_cells=8", "y_cells=8", "z_cells=4", "tl_use_deflation"),
			"exceeds the mesh in z"},
		{"2D coarse space above the cap", deck(base, "x_cells=128", "y_cells=128", "tl_use_deflation", "tl_deflation_blocks=65"),
			"4225×4225 dense coarse matrix (136 MiB)"},
		{"3D coarse space above the cap", deck(base, "dims=3", "x_cells=32", "y_cells=32", "z_cells=32", "tl_use_deflation", "tl_deflation_blocks=17"),
			"4913×4913 dense coarse matrix (184 MiB)"},

		// Validate: states.
		{"first state with geometry", deck("state 1 density=1 energy=1 geometry=rectangle xmax=1 ymax=1"),
			"the first state is the background"},
		{"first state with geometry, index not 1", deck("state 3 density=1 energy=1 geometry=circle radius=1"),
			"the first state is the background"},
		{"nan density", deck("state 1 density=nan energy=1"), "non-finite attribute"},
		{"inf energy", deck("state 1 density=1 energy=inf"), "non-finite attribute"},
		{"nan region attribute", deck(base, "state 2 density=1 energy=1 geometry=circle radius=nan"),
			"non-finite attribute"},
		{"zero density", deck("state 1 density=0 energy=1"), "density must be positive"},
		{"negative energy", deck("state 1 density=1 energy=-2"), "energy must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ParseString(tc.in)
			if err == nil {
				err = d.Validate()
			}
			if err == nil {
				t.Fatalf("deck accepted; want error containing %q\ndeck:\n%s", tc.want, tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsBoundaryValues pins the other side of each gate:
// the smallest values the rejection paths above must NOT fire on.
func TestValidateAcceptsBoundaryValues(t *testing.T) {
	for name, in := range map[string]string{
		"one cell":            "*tea\nx_cells=1\ny_cells=1\nstate 1 density=1 energy=1\n*endtea",
		"zero energy":         "*tea\nstate 1 density=1 energy=0\n*endtea",
		"end_step only":       "*tea\nend_time=0\nend_step=3\nstate 1 density=1 energy=1\n*endtea",
		"deflation one block": "*tea\ntl_use_deflation\ntl_deflation_blocks=1\nstate 1 density=1 energy=1\n*endtea",
		"coarse space at cap": "*tea\nx_cells=64\ny_cells=64\ntl_use_deflation\ntl_deflation_blocks=64\nstate 1 density=1 energy=1\n*endtea",
		"geometry later":      "*tea\nstate 1 density=1 energy=1\nstate 2 density=2 energy=3 geometry=point xcentre=5 ycentre=5\n*endtea",
		"ppcg halo depth":     "*tea\ntl_use_ppcg\ntl_ppcg_halo_depth=4\nstate 1 density=1 energy=1\n*endtea",
		"cg halo depth 1":     "*tea\ntl_use_cg\ntl_ppcg_halo_depth=1\nstate 1 density=1 energy=1\n*endtea",
	} {
		t.Run(name, func(t *testing.T) {
			d, err := ParseString(in)
			if err == nil {
				err = d.Validate()
			}
			if err != nil {
				t.Fatalf("boundary deck rejected: %v\ndeck:\n%s", err, in)
			}
		})
	}
}

// TestHaloDepthCheckedAfterOverrides: Parse accepts a CG deck that sets
// tl_ppcg_halo_depth, since a caller may still switch its solver to
// PPCG; Validate refuses it as parsed and accepts it once the solver is
// PPCG.
func TestHaloDepthCheckedAfterOverrides(t *testing.T) {
	d, err := ParseString("*tea\ntl_use_cg\ntl_ppcg_halo_depth=3\nstate 1 density=1 energy=1\n*endtea")
	if err != nil {
		t.Fatalf("Parse refused a CG deck with a halo depth: %v", err)
	}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "tl_ppcg_halo_depth 3 is PPCG's inner matrix-powers depth") {
		t.Fatalf("Validate: err = %v, want the PPCG-only halo depth error", err)
	}
	d.Solver = "ppcg"
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after switching to ppcg: %v", err)
	}
}
