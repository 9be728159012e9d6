package problem

import (
	"testing"

	"tealeaf/internal/grid"
)

// BenchmarkPaint paints the 1024² crooked pipe (the bench harness's
// pipe2d rows), in ns per cell.
func BenchmarkPaint(b *testing.B) {
	d := CrookedPipeDeck(1024, 1024)
	g := grid.MustGrid2D(d.XCells, d.YCells, 2, d.XMin, d.XMax, d.YMin, d.YMax)
	den, en := grid.NewField2D(g), grid.NewField2D(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Paint(d.States, den, en); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Cells()), "ns/cell")
}

// BenchmarkPaint3D paints the 128³ two-state box deck (the bm3d row).
func BenchmarkPaint3D(b *testing.B) {
	d := BenchmarkDeck3D(128)
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, 2, d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		b.Fatal(err)
	}
	den, en := grid.NewField3D(g), grid.NewField3D(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Paint3D(d.States, den, en); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Cells()), "ns/cell")
}
