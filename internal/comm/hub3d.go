package comm

import (
	"fmt"

	"tealeaf/internal/grid"
)

// Exchange3D implements Communicator for 3D fields with the three-phase
// extension of the 2D two-phase scheme, so every edge and corner halo
// cell receives its diagonal neighbour's data without explicit diagonal
// messages — exactly as TeaLeaf's update_halo ordering generalises to
// 3D. The phase core is shared with the TCP backend in exchange.go; only
// the slab transport differs.
func (c *RankComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	if len(fields) == 0 {
		return nil
	}
	if c.hub.part3 == nil {
		return fmt.Errorf("comm: 3D exchange on a 2D-partition communicator")
	}
	messages, bytes, err := exchange3D(hubSlabs{c}, c.hub.part3, c.rank, c.Physical3D(), depth, fields)
	if err != nil {
		return err
	}
	c.trace.AddExchange(depth, messages, bytes)
	return nil
}

// packX3 packs x-slabs [x0,x1) over interior rows and planes of every field.
func packX3(tr slabTransport, fields []*grid.Field3D, x0, x1, depth int) []float64 {
	g := fields[0].Grid
	msg := tr.slab(len(fields) * (x1 - x0) * g.NY * g.NZ)
	for _, f := range fields {
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				msg = append(msg, f.Row(j, k, x0, x1)...)
			}
		}
	}
	return msg
}

func unpackX3(fields []*grid.Field3D, msg []float64, x0, x1, depth int) {
	g := fields[0].Grid
	pos := 0
	w := x1 - x0
	for _, f := range fields {
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				copy(f.Row(j, k, x0, x1), msg[pos:pos+w])
				pos += w
			}
		}
	}
}

// packY3 packs y-slabs [y0,y1) over interior planes, spanning
// [-depth, NX+depth) in x: the x-halo columns carry the xy-edge data.
func packY3(tr slabTransport, fields []*grid.Field3D, y0, y1, depth int) []float64 {
	g := fields[0].Grid
	w := g.NX + 2*depth
	msg := tr.slab(len(fields) * (y1 - y0) * w * g.NZ)
	for _, f := range fields {
		for k := 0; k < g.NZ; k++ {
			for j := y0; j < y1; j++ {
				msg = append(msg, f.Row(j, k, -depth, g.NX+depth)...)
			}
		}
	}
	return msg
}

func unpackY3(fields []*grid.Field3D, msg []float64, y0, y1, depth int) {
	g := fields[0].Grid
	w := g.NX + 2*depth
	pos := 0
	for _, f := range fields {
		for k := 0; k < g.NZ; k++ {
			for j := y0; j < y1; j++ {
				copy(f.Row(j, k, -depth, g.NX+depth), msg[pos:pos+w])
				pos += w
			}
		}
	}
}

// packZ3 packs z-slabs [z0,z1) spanning the x- and y-halos: the halo rows
// and columns carry the xz/yz-edge and corner data.
func packZ3(tr slabTransport, fields []*grid.Field3D, z0, z1, depth int) []float64 {
	g := fields[0].Grid
	w := g.NX + 2*depth
	h := g.NY + 2*depth
	msg := tr.slab(len(fields) * (z1 - z0) * w * h)
	for _, f := range fields {
		for k := z0; k < z1; k++ {
			for j := -depth; j < g.NY+depth; j++ {
				msg = append(msg, f.Row(j, k, -depth, g.NX+depth)...)
			}
		}
	}
	return msg
}

func unpackZ3(fields []*grid.Field3D, msg []float64, z0, z1, depth int) {
	g := fields[0].Grid
	w := g.NX + 2*depth
	pos := 0
	for _, f := range fields {
		for k := z0; k < z1; k++ {
			for j := -depth; j < g.NY+depth; j++ {
				copy(f.Row(j, k, -depth, g.NX+depth), msg[pos:pos+w])
				pos += w
			}
		}
	}
}

// gatherMsg3 carries one rank's interior block to rank 0.
type gatherMsg3 struct {
	extent grid.Extent3D
	data   []float64 // x-fastest, extent.NX() wide rows
}

// GatherInterior3D assembles the ranks' interior blocks into the provided
// global field on rank 0 (dst may be nil on other ranks). Collective:
// every rank must call it. Used for output and verification, not in
// solver inner loops.
func (c *RankComm) GatherInterior3D(local *grid.Field3D, dst *grid.Field3D) error {
	if c.hub.part3 == nil {
		return fmt.Errorf("comm: 3D gather on a 2D-partition communicator")
	}
	ext := c.hub.part3.ExtentOf(c.rank)
	g := local.Grid
	if g.NX != ext.NX() || g.NY != ext.NY() || g.NZ != ext.NZ() {
		return fmt.Errorf("comm: local field %dx%dx%d does not match extent %dx%dx%d",
			g.NX, g.NY, g.NZ, ext.NX(), ext.NY(), ext.NZ())
	}
	data := make([]float64, 0, ext.Cells())
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			data = append(data, local.Row(j, k, 0, g.NX)...)
		}
	}
	ch := c.hub.gat3
	ch <- gatherMsg3{extent: ext, data: data}
	if c.rank != 0 {
		// The trailing barrier keeps consecutive gathers from interleaving.
		c.Barrier()
		return nil
	}
	p := c.hub.part3
	var err error
	switch {
	case dst == nil:
		err = fmt.Errorf("comm: rank 0 needs a destination field")
	case dst.Grid.NX != p.NX || dst.Grid.NY != p.NY || dst.Grid.NZ != p.NZ:
		err = fmt.Errorf("comm: destination %dx%dx%d does not match global %dx%dx%d",
			dst.Grid.NX, dst.Grid.NY, dst.Grid.NZ, p.NX, p.NY, p.NZ)
	}
	// Drain even on error so the other ranks' barrier is released.
	for i := 0; i < c.Size(); i++ {
		m := <-ch
		if err != nil {
			continue
		}
		pos := 0
		w := m.extent.NX()
		for k := m.extent.Z0; k < m.extent.Z1; k++ {
			for j := m.extent.Y0; j < m.extent.Y1; j++ {
				copy(dst.Row(j, k, m.extent.X0, m.extent.X1), m.data[pos:pos+w])
				pos += w
			}
		}
	}
	c.Barrier()
	return err
}

// Run3D launches fn on every rank of the 3D partition in its own
// goroutine and waits for all of them; the returned error is the first
// non-nil error by rank order. This is the `mpirun` of the 3D path.
func Run3D(part3 *grid.Partition3D, fn func(c *RankComm) error) error {
	return runRanks(NewHub3D(part3), fn)
}
