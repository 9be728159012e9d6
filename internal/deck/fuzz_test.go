package deck

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds are the in-source seed inputs for FuzzParseString; the
// committed corpus under testdata/fuzz/FuzzParseString adds nastier
// cases found by earlier fuzzing runs. Together they cover every key
// family the parser accepts plus structurally broken inputs.
var fuzzSeeds = []string{
	"",
	"*tea\n*endtea",
	"*tea\nstate 1 density=1 energy=1\n*endtea",
	"! comment only\n*tea\nstate 1 density=100 energy=0.0001\nstate 2 density=0.1 energy=25 geometry=rectangle xmin=0 xmax=1 ymin=1 ymax=3\n*endtea\n",
	"*tea\ndims=3\nz_cells=8\nzmin=0\nzmax=1\nstate 1 density=1 energy=1\nstate 2 density=2 energy=3 geometry=circle xcentre=0.5 ycentre=0.5 zcentre=0.5 radius=0.2\n*endtea",
	"*tea\ntl_use_ppcg\ntl_ppcg_inner_steps=4\ntl_ppcg_halo_depth=2\ntl_preconditioner_type jac_block\nstate 1 density=1 energy=1\n*endtea",
	"*tea\ntl_use_deflation\ntl_deflation_blocks=4\ntl_deflation_levels=2\ntl_tiling\ntl_tile_y=8\nstate 1 density=1 energy=1\n*endtea",
	"*tea\nx_cells=-1\nstate 1 density=1 energy=1\n*endtea",
	"*tea\nstate 1 density=nan energy=inf\n*endtea",
	"*tea\nstate abc\n*endtea",
	"*TEA\nSTATE 1 DENSITY=2 ENERGY=3\n*ENDTEA",
	"*tea\ntest_problem 5\nvisit_frequency=10\nprofiler_on\ntl_fused_dots\ntl_coefficient_recip_density\nstate 1 density=1 energy=1\n*endtea",
}

// FuzzParseString asserts the parser's two safety properties on
// arbitrary input: it never panics (the fuzz engine fails on any panic),
// and every ACCEPTED deck survives a parse → Format → parse round-trip
// bit-exactly — the property the shrinker and the fuzz harness's
// "ready-to-run reproducer" output rely on.
func FuzzParseString(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseString(s)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		text := d.Format()
		d2, err := ParseString(text)
		if err != nil {
			t.Fatalf("accepted deck did not re-parse: %v\nformatted:\n%s", err, text)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round-trip changed the deck:\nbefore: %+v\nafter:  %+v\nformatted:\n%s", d, d2, text)
		}
	})
}

// TestFormatRoundTripsCannedDecks runs the same round-trip property over
// the seed inputs directly, so it is checked on every ordinary `go test`
// run, not only under -fuzz.
func TestFormatRoundTripsCannedDecks(t *testing.T) {
	for i, s := range fuzzSeeds {
		d, err := ParseString(s)
		if err != nil {
			continue
		}
		d2, err := ParseString(d.Format())
		if err != nil {
			t.Errorf("seed %d: formatted deck did not re-parse: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("seed %d: round-trip changed the deck\nbefore: %+v\nafter:  %+v", i, d, d2)
		}
	}
}

// TestFormatIsValidatedOutput pins details of the canonical form: flag
// keys appear only when set, state attributes only when non-zero, and
// the output itself passes Validate via ParseString.
func TestFormatIsValidatedOutput(t *testing.T) {
	d, err := ParseString("*tea\ntl_use_ppcg\nstate 1 density=1 energy=0\nstate 2 density=3 energy=4 geometry=point xcentre=2 ycentre=7\n*endtea")
	if err != nil {
		t.Fatal(err)
	}
	text := d.Format()
	for _, absent := range []string{"tl_fused_dots", "tl_tiling", "tl_use_deflation\n", "profiler_on", "radius="} {
		if strings.Contains(text, absent) {
			t.Errorf("canonical form of a plain deck mentions %q:\n%s", absent, text)
		}
	}
	for _, present := range []string{"tl_use_ppcg", "state 1 density=1 energy=0\n", "geometry=point", "xcentre=2"} {
		if !strings.Contains(text, present) {
			t.Errorf("canonical form is missing %q:\n%s", present, text)
		}
	}
}
