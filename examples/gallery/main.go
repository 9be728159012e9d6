// Gallery runs the hard-deck gallery — decks promoted from the
// propcheck fuzzing corpus (see `teabench -exp fuzz` and
// internal/problem/gallery.go) — and renders each final temperature
// field as a PGM image plus a VTK file carrying both density and
// energy, so a fuzz-found stress case can be inspected in a viewer
// rather than only as numbers in a fuzz report.
package main

import (
	"fmt"
	"log"
	"os"

	"tealeaf/internal/core"
	"tealeaf/internal/grid"
	"tealeaf/internal/output"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

func main() {
	for _, g := range problem.GalleryDecks() {
		d := g.Deck
		inst, err := core.NewSerial(d, par.Serial)
		if err != nil {
			log.Fatalf("%s: %v", g.Name, err)
		}
		sum, err := inst.Run(d.Steps())
		if err != nil {
			log.Fatalf("%s: %v", g.Name, err)
		}
		lo, hi := inst.Energy.MinMaxInterior()
		fmt.Printf("%-16s %dx%d rx=%.1f steps=%d iters=%d energy=[%.4g, %.4g]\n",
			g.Name, d.XCells, d.YCells, problem.GalleryStiffness(d),
			d.Steps(), sum.TotalIterations, lo, hi)
		fmt.Print(output.ASCIIHeatmap(inst.Energy, 64, 20))

		if err := writePGM("gallery_"+g.Name+".pgm", inst); err != nil {
			log.Fatal(err)
		}
		if err := writeVTK("gallery_"+g.Name+".vtk", g.Name, inst); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote gallery_%s.pgm, gallery_%s.vtk\n\n", g.Name, g.Name)
	}
}

func writePGM(path string, inst *core.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return output.WritePGM(f, inst.Energy, 0, 0) // lo >= hi: auto-range
}

func writeVTK(path, name string, inst *core.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return output.WriteVTK(f, "tealeaf gallery: "+name, map[string]*grid.Field2D{
		"density": inst.Density,
		"energy":  inst.Energy,
	})
}
