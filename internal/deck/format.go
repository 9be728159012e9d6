package deck

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders the deck as canonical tea.in text: a *tea/*endtea block
// holding every parser-settable key, flag keys only when set, and one
// state line per state with only its non-zero attributes. The output is
// the exchange format the property harness and the shrinker use for
// "ready-to-run" reproducers, and it round-trips exactly:
// ParseString(d.Format()) yields a deck DeepEqual to d for any d that
// itself came out of the parser (floats are printed with
// strconv.FormatFloat 'g'/-1, the shortest string that re-parses to the
// identical bits).
func (d *Deck) Format() string {
	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	w("*tea")
	w("dims=%d", d.Dims)
	w("x_cells=%d", d.XCells)
	w("y_cells=%d", d.YCells)
	w("z_cells=%d", d.ZCells)
	w("xmin=%s", g(d.XMin))
	w("xmax=%s", g(d.XMax))
	w("ymin=%s", g(d.YMin))
	w("ymax=%s", g(d.YMax))
	w("zmin=%s", g(d.ZMin))
	w("zmax=%s", g(d.ZMax))
	w("initial_timestep=%s", g(d.InitialTimestep))
	w("end_time=%s", g(d.EndTime))
	w("end_step=%d", d.EndStep)
	w("tl_use_%s", d.Solver)
	w("tl_max_iters=%d", d.MaxIters)
	w("tl_eps=%s", g(d.Eps))
	w("tl_ppcg_inner_steps=%d", d.InnerSteps)
	w("tl_ppcg_halo_depth=%d", d.HaloDepth)
	w("tl_eigen_cg_iters=%d", d.EigenCGIters)
	w("tl_preconditioner_type=%s", d.Precond)
	w("tl_coefficient_%s", d.Coefficient)
	if d.UseDeflation {
		w("tl_use_deflation")
	}
	w("tl_deflation_blocks=%d", d.DeflationBlocks)
	for _, s := range d.States {
		sb.WriteString(formatState(s, g))
	}
	w("*endtea")
	return sb.String()
}

// formatState renders one state line. Zero-valued attributes are omitted
// (the parser leaves unmentioned attributes at zero, so the round-trip is
// exact); geometry is written first for readability.
func formatState(s State, g func(float64) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "state %d density=%s energy=%s", s.Index, g(s.Density), g(s.Energy))
	if s.Geometry != GeomNone {
		fmt.Fprintf(&sb, " geometry=%s", s.Geometry)
	}
	attr := func(name string, v float64) {
		if v != 0 {
			fmt.Fprintf(&sb, " %s=%s", name, g(v))
		}
	}
	attr("xmin", s.XMin)
	attr("xmax", s.XMax)
	attr("ymin", s.YMin)
	attr("ymax", s.YMax)
	attr("zmin", s.ZMin)
	attr("zmax", s.ZMax)
	attr("xcentre", s.CX)
	attr("ycentre", s.CY)
	attr("zcentre", s.CZ)
	attr("radius", s.Radius)
	sb.WriteByte('\n')
	return sb.String()
}
