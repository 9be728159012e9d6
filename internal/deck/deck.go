// Package deck parses TeaLeaf input decks (the tea.in dialect): the grid
// extents, the material/energy states that paint the initial condition,
// time-stepping controls, and the tl_* solver options. Lines outside the
// *tea ... *endtea block are ignored, as are blank lines and comments
// starting with '!' or '#'.
//
// Beyond stock TeaLeaf, the dialect adds: dims/z_cells/zmin/zmax (3D
// decks) and the deflation keys tl_use_deflation /
// tl_deflation_blocks=N / tl_deflation_levels=L (subdomain deflation as
// an outer Krylov projector; N coarse blocks per direction over the
// global mesh, default 8, with an L-deep nested hierarchy — composes
// with tl_use_cg and tl_use_ppcg in 2D and 3D, single- or multi-rank).
package deck

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Geometry names the shape a state paints.
type Geometry string

// The geometries TeaLeaf's generate_chunk supports.
const (
	GeomNone      Geometry = ""          // state 1: fills the whole domain
	GeomRectangle Geometry = "rectangle" // axis-aligned box
	GeomCircle    Geometry = "circle"    // disc of Radius around (CX, CY)
	GeomPoint     Geometry = "point"     // single cell containing (CX, CY)
)

// State is one material region of the initial condition. State 1 is the
// background (no geometry); later states overwrite it inside their shape.
type State struct {
	Index    int
	Density  float64
	Energy   float64
	Geometry Geometry
	// Rectangle extents. On a 3D deck a rectangle is a box; a state whose
	// z-range is empty (ZMax <= ZMin, the zero value) spans the whole
	// domain in z, so 2D state definitions extrude naturally.
	XMin, XMax, YMin, YMax float64
	ZMin, ZMax             float64
	// Circle/point location and radius (sphere centre in 3D).
	CX, CY, CZ, Radius float64
}

// Deck is a parsed input deck.
type Deck struct {
	// Dims selects the spatial dimensionality: 2 (default) or 3. A 3D
	// deck additionally uses ZCells and the z extents.
	Dims                   int
	XCells, YCells, ZCells int
	XMin, XMax, YMin, YMax float64
	ZMin, ZMax             float64

	InitialTimestep float64
	EndTime         float64
	EndStep         int

	Solver       string // cg | ppcg | chebyshev | jacobi
	MaxIters     int
	Eps          float64
	InnerSteps   int
	HaloDepth    int
	EigenCGIters int
	Precond      string // none | jac_diag | jac_block
	Coefficient  string // density | recip_density
	ProfilerOn   bool
	// UseDeflation composes subdomain deflation as an outer projector
	// around the CG or PPCG solve (tl_use_deflation; §VII future work).
	// Works in 2D and 3D, single- and multi-rank: the coarse space is
	// built over the global mesh and the projector's reductions run
	// through the solve's communicator.
	UseDeflation bool
	// DeflationBlocks is the coarse subdomain count per direction
	// (tl_deflation_blocks, default 8): the deflation space is spanned by
	// the indicator vectors of an N×N (2D) or N×N×N (3D) block partition
	// of the global mesh.
	DeflationBlocks int
	// DeflationLevels is the nested coarse-hierarchy depth
	// (tl_deflation_levels, default 1): 1 solves the coarse matrix by
	// dense Cholesky; L > 1 deflates it recursively over blocks-of-blocks
	// aggregations, with the dense solve only at the top — the paper's
	// §VII "series of nested lower dimensional sub-spaces".
	DeflationLevels int

	States []State
}

// Default returns a deck with TeaLeaf's documented defaults (tea.in's
// implicit values): a 10×10 unit-square-style domain, CG solver, eps 1e-10.
func Default() *Deck {
	return &Deck{
		Dims:   2,
		XCells: 10, YCells: 10, ZCells: 10,
		XMin: 0, XMax: 10, YMin: 0, YMax: 10, ZMin: 0, ZMax: 10,
		InitialTimestep: 0.04,
		EndTime:         10,
		EndStep:         2147483647,
		Solver:          "cg",
		MaxIters:        10000,
		Eps:             1e-10,
		InnerSteps:      10,
		HaloDepth:       1,
		EigenCGIters:    20,
		Precond:         "none",
		Coefficient:     "density",
		DeflationBlocks: 8,
		DeflationLevels: 1,
	}
}

// Parse reads a deck from r, applying values over Default().
func Parse(r io.Reader) (*Deck, error) {
	d := Default()
	sc := bufio.NewScanner(r)
	inBlock := false
	sawBlock := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case lower == "*tea":
			inBlock = true
			sawBlock = true
			continue
		case lower == "*endtea":
			inBlock = false
			continue
		}
		if !inBlock {
			continue
		}
		if err := d.parseLine(lower); err != nil {
			return nil, fmt.Errorf("deck: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("deck: %w", err)
	}
	if !sawBlock {
		return nil, fmt.Errorf("deck: no *tea block found")
	}
	if err := d.validateParsed(); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseString parses a deck held in a string.
func ParseString(s string) (*Deck, error) { return Parse(strings.NewReader(s)) }

func (d *Deck) parseLine(line string) error {
	if strings.HasPrefix(line, "state") {
		return d.parseState(line)
	}
	// Normalise "key value" to "key=value" for flag-style options that
	// TeaLeaf writes with a space (tl_preconditioner_type jac_block).
	fields := strings.Fields(line)
	if len(fields) == 2 && !strings.Contains(line, "=") {
		line = fields[0] + "=" + fields[1]
	}

	key, val, hasVal := strings.Cut(line, "=")
	key = strings.TrimSpace(key)
	val = strings.TrimSpace(val)
	switch key {
	case "x_cells":
		return d.setInt(&d.XCells, val)
	case "y_cells":
		return d.setInt(&d.YCells, val)
	case "z_cells":
		return d.setInt(&d.ZCells, val)
	case "dims":
		return d.setInt(&d.Dims, val)
	case "zmin":
		return d.setFloat(&d.ZMin, val)
	case "zmax":
		return d.setFloat(&d.ZMax, val)
	case "xmin":
		return d.setFloat(&d.XMin, val)
	case "xmax":
		return d.setFloat(&d.XMax, val)
	case "ymin":
		return d.setFloat(&d.YMin, val)
	case "ymax":
		return d.setFloat(&d.YMax, val)
	case "initial_timestep":
		return d.setFloat(&d.InitialTimestep, val)
	case "end_time":
		return d.setFloat(&d.EndTime, val)
	case "end_step":
		return d.setInt(&d.EndStep, val)
	case "tl_max_iters":
		return d.setInt(&d.MaxIters, val)
	case "tl_eps":
		return d.setFloat(&d.Eps, val)
	case "tl_ppcg_inner_steps":
		return d.setInt(&d.InnerSteps, val)
	case "tl_ppcg_halo_depth", "halo_depth":
		return d.setInt(&d.HaloDepth, val)
	case "tl_eigen_cg_iters", "tl_ch_cg_presteps":
		return d.setInt(&d.EigenCGIters, val)
	case "tl_preconditioner_type":
		d.Precond = val
		return nil
	case "tl_use_cg":
		d.Solver = "cg"
		return nil
	case "tl_use_jacobi":
		d.Solver = "jacobi"
		return nil
	case "tl_use_chebyshev":
		d.Solver = "chebyshev"
		return nil
	case "tl_use_ppcg":
		d.Solver = "ppcg"
		return nil
	case "tl_use_deflation":
		d.UseDeflation = true
		return nil
	case "tl_deflation_blocks":
		return d.setInt(&d.DeflationBlocks, val)
	case "tl_deflation_levels":
		return d.setInt(&d.DeflationLevels, val)
	case "tl_coefficient_density":
		d.Coefficient = "density"
		return nil
	case "tl_coefficient_recip_density":
		d.Coefficient = "recip_density"
		return nil
	case "profiler_on":
		d.ProfilerOn = true
		return nil
	case "test_problem", "visit_frequency", "summary_frequency":
		// Accepted, ignored: present in stock tea.in files but irrelevant
		// to the solve.
		_ = hasVal
		return nil
	}
	return fmt.Errorf("unknown option %q", key)
}

func (d *Deck) parseState(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "state" {
		return fmt.Errorf("malformed state line %q", line)
	}
	idx, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("state index: %w", err)
	}
	st := State{Index: idx}
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("state %d: malformed attribute %q", idx, f)
		}
		switch key {
		case "density":
			err = parseFloatInto(&st.Density, val)
		case "energy":
			err = parseFloatInto(&st.Energy, val)
		case "geometry":
			switch Geometry(val) {
			case GeomRectangle, GeomCircle, GeomPoint:
				st.Geometry = Geometry(val)
			default:
				err = fmt.Errorf("unknown geometry %q", val)
			}
		case "xmin":
			err = parseFloatInto(&st.XMin, val)
		case "xmax":
			err = parseFloatInto(&st.XMax, val)
		case "ymin":
			err = parseFloatInto(&st.YMin, val)
		case "ymax":
			err = parseFloatInto(&st.YMax, val)
		case "zmin":
			err = parseFloatInto(&st.ZMin, val)
		case "zmax":
			err = parseFloatInto(&st.ZMax, val)
		case "radius":
			err = parseFloatInto(&st.Radius, val)
		case "xcentre", "xcenter":
			err = parseFloatInto(&st.CX, val)
		case "ycentre", "ycenter":
			err = parseFloatInto(&st.CY, val)
		case "zcentre", "zcenter":
			err = parseFloatInto(&st.CZ, val)
		default:
			err = fmt.Errorf("unknown attribute %q", key)
		}
		if err != nil {
			return fmt.Errorf("state %d: %w", idx, err)
		}
	}
	d.States = append(d.States, st)
	return nil
}

func (d *Deck) setInt(dst *int, val string) error {
	v, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *Deck) setFloat(dst *float64, val string) error { return parseFloatInto(dst, val) }

func parseFloatInto(dst *float64, val string) error {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// Validate checks deck consistency: every check Parse makes, then the
// halo depth against the solver, which Parse leaves to Validate because
// a caller may still change either after parsing (the tealeaf command's
// -solver and -halo-depth flags). It never mutates the deck: a shared
// *Deck is validated concurrently by every rank goroutine of a
// distributed run.
func (d *Deck) Validate() error {
	if err := d.validateParsed(); err != nil {
		return err
	}
	if d.HaloDepth > 1 && d.Solver != "ppcg" {
		return fmt.Errorf("deck: tl_ppcg_halo_depth %d is PPCG's inner matrix-powers depth; the %q solver exchanges at depth 1 (set tl_ppcg_halo_depth=1 or tl_use_ppcg)", d.HaloDepth, d.Solver)
	}
	return nil
}

// validateParsed is every check of Validate but the halo depth against
// the solver. A zero Dims (zero-value decks built in code) is read as 2D.
func (d *Deck) validateParsed() error {
	dims := d.Dims
	if dims == 0 {
		dims = 2
	}
	switch {
	case dims != 2 && dims != 3:
		return fmt.Errorf("deck: dims must be 2 or 3, got %d", d.Dims)
	case d.XCells <= 0 || d.YCells <= 0:
		return fmt.Errorf("deck: cell counts must be positive (%d x %d)", d.XCells, d.YCells)
	case dims == 3 && d.ZCells <= 0:
		return fmt.Errorf("deck: z_cells must be positive for a 3D deck, got %d", d.ZCells)
	case !finiteAll(d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax):
		return fmt.Errorf("deck: domain extents must be finite")
	case !finiteAll(d.InitialTimestep, d.EndTime, d.Eps):
		return fmt.Errorf("deck: initial_timestep, end_time and tl_eps must be finite")
	case d.XMax <= d.XMin || d.YMax <= d.YMin:
		return fmt.Errorf("deck: domain extents must be non-empty")
	case dims == 3 && d.ZMax <= d.ZMin:
		return fmt.Errorf("deck: z extents must be non-empty for a 3D deck")
	case d.InitialTimestep <= 0:
		return fmt.Errorf("deck: initial_timestep must be positive")
	case d.EndTime <= 0 && d.EndStep <= 0:
		return fmt.Errorf("deck: need end_time or end_step")
	case d.Eps <= 0:
		return fmt.Errorf("deck: tl_eps must be positive")
	case d.HaloDepth < 1:
		return fmt.Errorf("deck: halo depth must be >= 1")
	case len(d.States) == 0:
		return fmt.Errorf("deck: need at least one state")
	}
	if d.UseDeflation {
		bx := d.DeflationBlocks
		if bx < 1 {
			return fmt.Errorf("deck: tl_deflation_blocks must be >= 1, got %d", bx)
		}
		if bx > d.XCells || bx > d.YCells {
			return fmt.Errorf("deck: tl_deflation_blocks %d exceeds the mesh (%dx%d cells)", bx, d.XCells, d.YCells)
		}
		if dims == 3 && bx > d.ZCells {
			return fmt.Errorf("deck: tl_deflation_blocks %d exceeds the mesh in z (%d cells)", bx, d.ZCells)
		}
		levels := d.DeflationLevels
		if levels == 0 {
			levels = 1 // zero-value decks built in code
		}
		if levels < 1 {
			return fmt.Errorf("deck: tl_deflation_levels must be >= 1, got %d", d.DeflationLevels)
		}
		// Each nesting step halves the block grid; the hierarchy bottoms
		// out once every direction is a single block.
		if maxHalvings(bx)+1 < levels {
			return fmt.Errorf("deck: tl_deflation_levels %d exceeds the hierarchy of a %d-block partition (at most %d levels)",
				levels, bx, maxHalvings(bx)+1)
		}
	}
	// The first state is the background whatever its index: problem.Paint
	// refuses a leading geometry state, so rejecting it here (not only
	// when Index == 1, as earlier versions did) keeps "Validate passed"
	// meaning "the deck can actually be painted".
	if d.States[0].Geometry != GeomNone {
		return fmt.Errorf("deck: the first state is the background and takes no geometry")
	}
	for _, s := range d.States {
		if !finiteAll(s.Density, s.Energy, s.XMin, s.XMax, s.YMin, s.YMax,
			s.ZMin, s.ZMax, s.CX, s.CY, s.CZ, s.Radius) {
			return fmt.Errorf("deck: state %d has a non-finite attribute", s.Index)
		}
		if s.Density <= 0 {
			return fmt.Errorf("deck: state %d density must be positive", s.Index)
		}
		if s.Energy < 0 {
			return fmt.Errorf("deck: state %d energy must be non-negative", s.Index)
		}
	}
	return nil
}

// finiteAll reports whether every value is a finite float: NaN and ±Inf
// deck parameters pass every ordered comparison in the checks above
// (NaN compares false against everything), then poison the solve, so
// they are rejected wholesale.
func finiteAll(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// maxHalvings counts how many times n can be ceil-halved before reaching
// 1 — the number of nesting steps a deflation hierarchy over n blocks per
// direction supports. The (n+1)/2 step must stay in lockstep with the
// aggregation rule in internal/deflate (hierarchy.go, aggregations): deck
// validation promises exactly what the constructor will accept.
func maxHalvings(n int) int {
	h := 0
	for n > 1 {
		n = (n + 1) / 2
		h++
	}
	return h
}

// Steps returns the number of time steps the deck requests: end_time
// divided by the fixed dt, capped by end_step.
func (d *Deck) Steps() int {
	byTime := int(d.EndTime/d.InitialTimestep + 0.5)
	if byTime < 1 {
		byTime = 1
	}
	if d.EndStep > 0 && d.EndStep < byTime {
		return d.EndStep
	}
	return byTime
}
