package deck

import (
	"os"
	"strings"
	"testing"
)

const sampleDeck = `
*tea
! crooked pipe style test deck
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=2.5 ymin=4.0 ymax=6.0
state 3 density=0.1 energy=0.1 geometry=circle xcentre=5.0 ycentre=5.0 radius=1.5
state 4 density=0.2 energy=1.0 geometry=point xcentre=9.0 ycentre=9.0

x_cells=400
y_cells=200
xmin=0.0
xmax=10.0
ymin=0.0
ymax=5.0

initial_timestep=0.04
end_time=15.0
end_step=375

tl_use_ppcg
tl_ppcg_inner_steps=12
tl_max_iters=20000
tl_eps=1.0e-12
tl_preconditioner_type jac_block
tl_coefficient_recip_density
profiler_on
*endtea
`

func TestParseSampleDeck(t *testing.T) {
	d, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	if d.XCells != 400 || d.YCells != 200 {
		t.Errorf("cells = %dx%d", d.XCells, d.YCells)
	}
	if d.XMax != 10 || d.YMax != 5 {
		t.Errorf("extent = %v,%v", d.XMax, d.YMax)
	}
	if d.InitialTimestep != 0.04 || d.EndTime != 15 || d.EndStep != 375 {
		t.Errorf("time controls wrong: %+v", d)
	}
	if d.Solver != "ppcg" || d.InnerSteps != 12 || d.MaxIters != 20000 {
		t.Errorf("solver controls wrong: %+v", d)
	}
	if d.Eps != 1e-12 {
		t.Errorf("eps = %v", d.Eps)
	}
	if d.Precond != "jac_block" {
		t.Errorf("precond = %q", d.Precond)
	}
	if d.Coefficient != "recip_density" {
		t.Errorf("coefficient = %q", d.Coefficient)
	}
	if !d.ProfilerOn {
		t.Error("profiler_on not parsed")
	}
	if len(d.States) != 4 {
		t.Fatalf("states = %d", len(d.States))
	}
	if d.States[0].Geometry != GeomNone || d.States[0].Density != 100 {
		t.Errorf("state 1 wrong: %+v", d.States[0])
	}
	s2 := d.States[1]
	if s2.Geometry != GeomRectangle || s2.XMax != 2.5 || s2.YMin != 4 {
		t.Errorf("state 2 wrong: %+v", s2)
	}
	s3 := d.States[2]
	if s3.Geometry != GeomCircle || s3.Radius != 1.5 || s3.CX != 5 {
		t.Errorf("state 3 wrong: %+v", s3)
	}
	if d.States[3].Geometry != GeomPoint {
		t.Errorf("state 4 wrong: %+v", d.States[3])
	}
}

func TestParseDefaultsPreserved(t *testing.T) {
	d, err := ParseString("*tea\nstate 1 density=1.0 energy=1.0\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	def := Default()
	if d.Solver != def.Solver || d.Eps != def.Eps || d.MaxIters != def.MaxIters {
		t.Errorf("defaults not preserved: %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no block":         "x_cells=10",
		"unknown option":   "*tea\nstate 1 density=1 energy=1\nbogus_option=3\n*endtea",
		"bad state attr":   "*tea\nstate 1 density=1 energy=1 wibble=2\n*endtea",
		"bad geometry":     "*tea\nstate 1 density=1 energy=1\nstate 2 density=1 energy=1 geometry=blob\n*endtea",
		"no states":        "*tea\nx_cells=4\n*endtea",
		"neg density":      "*tea\nstate 1 density=-1 energy=1\n*endtea",
		"neg energy":       "*tea\nstate 1 density=1 energy=-1\n*endtea",
		"zero cells":       "*tea\nstate 1 density=1 energy=1\nx_cells=0\n*endtea",
		"bad int":          "*tea\nstate 1 density=1 energy=1\nx_cells=abc\n*endtea",
		"bad float":        "*tea\nstate 1 density=1 energy=1\ntl_eps=xyz\n*endtea",
		"empty extent":     "*tea\nstate 1 density=1 energy=1\nxmin=5\nxmax=5\n*endtea",
		"bad state line":   "*tea\nstate x density=1\n*endtea",
		"malformed attr":   "*tea\nstate 1 density\n*endtea",
		"state1 with geom": "*tea\nstate 1 density=1 energy=1 geometry=rectangle\n*endtea",
		"zero halo depth":  "*tea\nstate 1 density=1 energy=1\nhalo_depth=0\n*endtea",
		"nonpositive eps":  "*tea\nstate 1 density=1 energy=1\ntl_eps=0\n*endtea",
	}
	for name, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRemovedLeverKeysRejected pins that the deleted pipelined-CG and
// split-sweep keys are gone from the dialect: a deck naming either is
// rejected as an unknown option on its own line, not silently ignored.
func TestRemovedLeverKeysRejected(t *testing.T) {
	for _, key := range []string{"tl_pipelined", "tl_split_sweeps"} {
		_, err := ParseString("*tea\nstate 1 density=1 energy=1\n" + key + "\n*endtea\n")
		if err == nil {
			t.Errorf("%s: parsed, want an unknown-option error", key)
			continue
		}
		for _, want := range []string{`unknown option "` + key + `"`, "line 3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", key, err, want)
			}
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	in := `
! leading comment
this line is outside the block and ignored entirely

*tea
# hash comment
state 1 density=2.0 energy=3.0

x_cells=8
*endtea
trailing junk also ignored
`
	d, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.XCells != 8 || d.States[0].Density != 2 {
		t.Errorf("parse through comments failed: %+v", d)
	}
}

func TestCaseInsensitive(t *testing.T) {
	d, err := ParseString("*TEA\nSTATE 1 DENSITY=1.5 ENERGY=2.0\nX_CELLS=16\nTL_USE_CHEBYSHEV\n*ENDTEA")
	if err != nil {
		t.Fatal(err)
	}
	if d.XCells != 16 || d.Solver != "chebyshev" || d.States[0].Density != 1.5 {
		t.Errorf("case-insensitive parse failed: %+v", d)
	}
}

func TestSolverFlags(t *testing.T) {
	for flag, want := range map[string]string{
		"tl_use_cg": "cg", "tl_use_jacobi": "jacobi",
		"tl_use_chebyshev": "chebyshev", "tl_use_ppcg": "ppcg",
	} {
		d, err := ParseString("*tea\nstate 1 density=1 energy=1\n" + flag + "\n*endtea")
		if err != nil {
			t.Fatal(err)
		}
		if d.Solver != want {
			t.Errorf("%s => %q, want %q", flag, d.Solver, want)
		}
	}
}

func TestSpaceSeparatedOption(t *testing.T) {
	d, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_preconditioner_type jac_diag\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if d.Precond != "jac_diag" {
		t.Errorf("precond = %q", d.Precond)
	}
}

func TestSteps(t *testing.T) {
	d := Default()
	d.InitialTimestep = 0.04
	d.EndTime = 15
	d.EndStep = 1000
	if got := d.Steps(); got != 375 {
		t.Errorf("Steps = %d, want 375", got)
	}
	d.EndStep = 100
	if got := d.Steps(); got != 100 {
		t.Errorf("capped Steps = %d, want 100", got)
	}
	d.EndStep = 0
	d.EndTime = 0.01 // less than one dt
	if got := d.Steps(); got < 1 {
		t.Errorf("Steps must be at least 1, got %d", got)
	}
}

func TestIgnoredLegacyOptions(t *testing.T) {
	d, err := ParseString("*tea\nstate 1 density=1 energy=1\ntest_problem=5\nvisit_frequency=10\nsummary_frequency=1\n*endtea")
	if err != nil {
		t.Fatalf("legacy options must be accepted: %v", err)
	}
	_ = d
}

func TestParseReaderError(t *testing.T) {
	// A deck parsed from a reader with embedded NULs still scans; just
	// confirm Parse handles io.Reader directly.
	if _, err := Parse(strings.NewReader("*tea\nstate 1 density=1 energy=1\n*endtea")); err != nil {
		t.Fatal(err)
	}
}

func TestFusedDotsAndEigenIters(t *testing.T) {
	d, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_fused_dots\ntl_eigen_cg_iters=8\ntl_ppcg_halo_depth=4\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if !d.FusedDots || d.EigenCGIters != 8 || d.HaloDepth != 4 {
		t.Errorf("extensions not parsed: %+v", d)
	}
}

func TestTilingKeys(t *testing.T) {
	// tl_tiling alone: auto tile shape.
	d, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_tiling\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Tiling || d.TileX != 0 || d.TileY != 0 || d.TileZ != 0 {
		t.Errorf("tl_tiling: got Tiling=%v tiles %dx%dx%d, want auto (true, 0x0x0)", d.Tiling, d.TileX, d.TileY, d.TileZ)
	}
	// Any explicit edge implies tiling.
	d, err = ParseString("*tea\nstate 1 density=1 energy=1\ntl_tile_y=128\ntl_tile_z=4\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Tiling || d.TileX != 0 || d.TileY != 128 || d.TileZ != 4 {
		t.Errorf("tile edges: got Tiling=%v tiles %dx%dx%d, want true, 0x128x4", d.Tiling, d.TileX, d.TileY, d.TileZ)
	}
	// Negative edges are rejected.
	if _, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_tile_x=-2\n*endtea"); err == nil {
		t.Error("negative tile edge must fail validation")
	}
	// Default decks stay untiled (byte-stable legacy schedules).
	if d := Default(); d.Tiling {
		t.Error("Default() must not enable tiling")
	}
}

func TestDeflationKeys(t *testing.T) {
	d, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_use_deflation\ntl_deflation_blocks=4\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if !d.UseDeflation || d.DeflationBlocks != 4 {
		t.Errorf("deflation keys not parsed: %+v", d)
	}
	// Default block count without the key.
	d, err = ParseString("*tea\nstate 1 density=1 energy=1\ntl_use_deflation\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if d.DeflationBlocks != 8 {
		t.Errorf("default deflation blocks = %d, want 8", d.DeflationBlocks)
	}
	// tl_deflation_levels parses, defaults to 1, and is bounded by the
	// hierarchy the block partition supports.
	d, err = ParseString("*tea\nstate 1 density=1 energy=1\ntl_use_deflation\ntl_deflation_levels=2\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	if d.DeflationLevels != 2 {
		t.Errorf("deflation levels = %d, want 2", d.DeflationLevels)
	}
	if Default().DeflationLevels != 1 {
		t.Errorf("default deflation levels = %d, want 1", Default().DeflationLevels)
	}
	// 3D decks now compose: tl_use_deflation must validate on dims=3.
	if _, err := ParseString("*tea\ndims=3\nz_cells=8\nstate 1 density=1 energy=1\ntl_use_deflation\n*endtea"); err != nil {
		t.Errorf("tl_use_deflation on a 3D deck must validate: %v", err)
	}
	// Composition errors at deck validation: over-fine partitions (in any
	// direction, z included) and hierarchies deeper than the block grid.
	if _, err := ParseString("*tea\nx_cells=4\ny_cells=4\nstate 1 density=1 energy=1\ntl_use_deflation\n*endtea"); err == nil {
		t.Error("deflation blocks beyond the mesh must be rejected")
	}
	if _, err := ParseString("*tea\ndims=3\nz_cells=4\nstate 1 density=1 energy=1\ntl_use_deflation\ntl_deflation_blocks=8\n*endtea"); err == nil {
		t.Error("deflation blocks beyond the z extent must be rejected")
	}
	if _, err := ParseString("*tea\nstate 1 density=1 energy=1\ntl_use_deflation\ntl_deflation_blocks=4\ntl_deflation_levels=4\n*endtea"); err == nil {
		t.Error("deflation levels beyond the hierarchy must be rejected")
	}
}

func TestParseShippedDeck(t *testing.T) {
	f, err := os.Open("../../decks/crooked_pipe.in")
	if err != nil {
		t.Skipf("shipped deck not present: %v", err)
	}
	defer f.Close()
	d, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Solver != "ppcg" || d.XCells != 128 || len(d.States) != 7 {
		t.Errorf("shipped deck parsed wrongly: %+v", d)
	}
	if d.Steps() != 375 {
		t.Errorf("steps = %d", d.Steps())
	}
}

func TestParse3DDeck(t *testing.T) {
	d, err := ParseString(`
*tea
dims=3
x_cells=16
y_cells=12
z_cells=8
xmin=0.0
xmax=4.0
ymin=0.0
ymax=3.0
zmin=0.0
zmax=2.0
initial_timestep=0.01
end_step=3
tl_use_ppcg
state 1 density=10 energy=0.01
state 2 density=0.1 energy=20 geometry=rectangle xmin=0 xmax=1 ymin=0 ymax=1 zmin=0 zmax=1
state 3 density=0.2 energy=5 geometry=circle xcentre=2 ycentre=1.5 zcentre=1 radius=0.5
*endtea
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dims != 3 || d.ZCells != 8 || d.ZMin != 0 || d.ZMax != 2 {
		t.Errorf("3D geometry not parsed: %+v", d)
	}
	if d.States[1].ZMin != 0 || d.States[1].ZMax != 1 {
		t.Errorf("state z-range not parsed: %+v", d.States[1])
	}
	if d.States[2].CZ != 1 {
		t.Errorf("state zcentre not parsed: %+v", d.States[2])
	}
}

func TestValidate3DDeck(t *testing.T) {
	d := Default()
	d.Dims = 3
	d.ZCells = 0
	d.States = []State{{Index: 1, Density: 1, Energy: 1}}
	if err := d.Validate(); err == nil {
		t.Error("3D deck without z_cells must fail validation")
	}
	d.ZCells = 4
	d.ZMin, d.ZMax = 1, 1
	if err := d.Validate(); err == nil {
		t.Error("empty z extent must fail validation")
	}
	d.ZMax = 2
	if err := d.Validate(); err != nil {
		t.Errorf("valid 3D deck rejected: %v", err)
	}
	d.Dims = 4
	if err := d.Validate(); err == nil {
		t.Error("dims=4 must fail validation")
	}
}
