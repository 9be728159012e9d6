package comm

import (
	"fmt"

	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// slabTransport abstracts how one packed halo slab travels between a
// pair of ranks: over the Hub's buffered mailbox channels or over a TCP
// peer connection. Every Exchange and Exchange3D — Hub, TCP and Serial,
// which has no peers and passes none — runs the one phase core below, so
// the corner-correct ordering and its validation rules exist exactly
// once, for both dimensions: the backends are bit-identical by
// construction, not by parallel maintenance. The side passed to sendSlab
// and recvSlab is the grid.Side of the RECEIVING rank at which the slab
// applies (the Hub's mailbox index). Implementations must make sendSlab
// non-blocking with respect to the peer's progress (buffered channel / a
// non-blocking write attempt whose unwritten tail goes to a writer
// queue): the core posts all of a phase's sends before draining its
// receives, and that is only deadlock-free if a send never waits for the
// peer to receive.
//
// The core packs each outgoing slab into the buffer slab hands out and
// passes it to sendSlab next, before asking for another, so a transport
// that has serialised the slab by the time sendSlab returns (TCP) hands
// out the same scratch buffer every time and one whose sendSlab passes
// the slice itself to the receiver (Hub) hands out fresh memory. A slab
// returned by recvSlab is likewise valid only until the next recvSlab.
type slabTransport interface {
	// slab returns an empty slice with room for n values to pack into.
	slab(n int) []float64
	sendSlab(to int, side grid.Side, msg []float64) error
	recvSlab(from int, side grid.Side, wantLen int) ([]float64, error)
}

// haloField is a field the exchange and the gathers move: a 2D one, the
// nz = 1 case of its layout, or a 3D one.
type haloField interface {
	*grid.Field2D | *grid.Field3D
	Layout() grid.Layout
	DataOrNil() []float64
}

// decomposition is a partition in the form the exchange and the gathers
// read: each rank's box and neighbours. A 2D partition is the nz = 1
// case, one rank deep in z with no z neighbours.
type decomposition struct {
	dims int
	n    [3]int // global cells per axis
	// min holds the smallest sub-domain extents: the floor division,
	// identical on every rank, so a check against it gives every rank the
	// same verdict (a per-rank verdict could leave peers deadlocked
	// mid-protocol).
	min   [3]int
	boxes []grid.Extent          // each rank's cells
	nbrs  [][grid.NumSides3D]int // each rank's neighbour across each side, -1 on the physical boundary
}

// noNeighbours is a rank alone on every side.
var noNeighbours = [grid.NumSides3D]int{-1, -1, -1, -1, -1, -1}

func decompose(p *grid.Partition) *decomposition {
	d := &decomposition{dims: p.Dims(), n: [3]int{p.NX, p.NY, p.NZ}}
	d.min[0], d.min[1], d.min[2] = p.MinExtent()
	for r := range p.Ranks() {
		var nb [grid.NumSides3D]int
		for s := range grid.NumSides3D {
			nb[s] = p.Neighbor(r, s)
		}
		d.boxes = append(d.boxes, p.ExtentOf(r))
		d.nbrs = append(d.nbrs, nb)
	}
	return d
}

func (d *decomposition) ranks() int { return len(d.boxes) }

// rank returns rank r's place, as the exchange core reads it.
func (d *decomposition) rank(r int) rankGeom {
	return rankGeom{dims: d.dims, nbr: d.nbrs[r], min: d.min}
}

// physical implements Physical for rank r of a 2D decomposition.
func (d *decomposition) physical(r int) PhysicalSides {
	if d.dims != 2 {
		panic("comm: Physical called on a 3D-partition communicator; use Physical3D")
	}
	nb := d.nbrs[r]
	return PhysicalSides{Left: nb[grid.Left] < 0, Right: nb[grid.Right] < 0, Down: nb[grid.Down] < 0, Up: nb[grid.Up] < 0}
}

// physical3D implements Physical3D for rank r of a 3D decomposition.
func (d *decomposition) physical3D(r int) PhysicalSides3D {
	if d.dims != 3 {
		panic("comm: Physical3D called on a 2D-partition communicator; use Physical")
	}
	nb := d.nbrs[r]
	return PhysicalSides3D{Left: nb[grid.Left] < 0, Right: nb[grid.Right] < 0, Down: nb[grid.Down] < 0,
		Up: nb[grid.Up] < 0, Back: nb[grid.Back] < 0, Front: nb[grid.Front] < 0}
}

// rankGeom is one rank's place in a decomposition: its neighbours and
// the smallest sub-domain extents. A whole-domain rank (Serial) has no
// neighbours and checks the depth against its fields' own extents.
type rankGeom struct {
	dims  int
	nbr   [grid.NumSides3D]int
	min   [3]int
	whole bool
}

// wholeDomain is the place of a single rank that holds the whole domain.
func wholeDomain(dims int) rankGeom { return rankGeom{dims: dims, nbr: noNeighbours, whole: true} }

// exchange is the body of every Exchange and Exchange3D: the
// dimensionality check, the phase core and the trace record.
func exchange[F haloField](tr slabTransport, r rankGeom, trace *stats.Trace, dims, depth int, fields []F) error {
	if len(fields) == 0 {
		return nil
	}
	if r.dims != dims {
		return fmt.Errorf("comm: %dD exchange on a %dD-partition communicator", dims, r.dims)
	}
	messages, bytes, err := exchangePhases(tr, r, depth, fields)
	if err != nil {
		return err
	}
	trace.AddExchange(depth, messages, bytes)
	return nil
}

// exchangePhases is the backend-independent corner-correct halo exchange
// — exactly TeaLeaf's update_halo ordering: x slabs over interior rows
// (and planes), then y slabs spanning the freshly filled x halos, then,
// where the layout has a z extent, z slabs spanning both, so every edge
// and corner halo cell receives its diagonal neighbour's data without
// explicit diagonal messages. Physical sides are filled by zero-flux
// mirroring in the same phase order. Returns the message count and byte
// volume for the caller's trace.
func exchangePhases[F haloField](tr slabTransport, r rankGeom, depth int, fields []F) (int, int64, error) {
	lay := fields[0].Layout()
	dims := lay.Dims()
	if depth < 1 || depth > lay.Halo[0] {
		return 0, 0, fmt.Errorf("comm: exchange depth %d outside [1,%d]", depth, lay.Halo[0])
	}
	// A sub-domain thinner than the depth cannot supply its neighbour's
	// halo from interior cells: packing would send stale halo data. A
	// zero-flux mirror deeper than the domain would likewise read outside
	// the interior.
	ext, what := r.min, "the smallest sub-domain extent"
	if r.whole {
		ext, what = lay.N, "the domain extent"
	}
	for a := range dims {
		if depth > ext[a] {
			return 0, 0, fmt.Errorf("comm: exchange depth %d exceeds %s %s", depth, what, shape(dims, ext))
		}
	}
	for _, f := range fields {
		if l := f.Layout(); l.N != lay.N || l.Halo != lay.Halo {
			return 0, 0, fmt.Errorf("comm: all fields in one exchange must share grid shape")
		}
	}

	messages := 0
	var bytes int64
	send := func(to int, side grid.Side, msg []float64) error {
		if err := tr.sendSlab(to, side, msg); err != nil {
			return err
		}
		messages++
		bytes += int64(len(msg) * 8)
		return nil
	}
	recv := func(from int, side grid.Side, b grid.Bounds3D) error {
		msg, err := tr.recvSlab(from, side, len(fields)*b.Cells())
		if err != nil {
			return err
		}
		for _, f := range fields {
			msg = msg[copyBox(f.Layout(), f.DataOrNil(), b, msg):]
		}
		return nil
	}

	for a := range dims {
		lo, hi := grid.Side(2*a), grid.Side(2*a+1)
		var mirror [grid.NumSides3D]bool
		mirror[lo], mirror[hi] = r.nbr[lo] < 0, r.nbr[hi] < 0
		for _, f := range fields {
			lay.Reflect(f.DataOrNil(), depth, mirror)
		}
		n := lay.N[a]
		// Send before receive: deadlock-free because sendSlab never waits
		// for the peer.
		if to := r.nbr[hi]; to >= 0 {
			if err := send(to, lo, pack(tr, fields, slabBox(lay, a, depth, n-depth, n))); err != nil {
				return messages, bytes, err
			}
		}
		if to := r.nbr[lo]; to >= 0 {
			if err := send(to, hi, pack(tr, fields, slabBox(lay, a, depth, 0, depth))); err != nil {
				return messages, bytes, err
			}
		}
		if from := r.nbr[lo]; from >= 0 {
			if err := recv(from, lo, slabBox(lay, a, depth, -depth, 0)); err != nil {
				return messages, bytes, err
			}
		}
		if from := r.nbr[hi]; from >= 0 {
			if err := recv(from, hi, slabBox(lay, a, depth, n, n+depth)); err != nil {
				return messages, bytes, err
			}
		}
	}
	return messages, bytes, nil
}

// slabBox returns the cells the phase along axis a moves at [c0, c1) on
// that axis: the axes before a span their halos to depth (the earlier
// phases filled them: they carry the edge and corner data), the axes
// after it their interior.
func slabBox(lay grid.Layout, a, depth, c0, c1 int) grid.Bounds3D {
	var lo, hi [3]int
	for b := range 3 {
		switch {
		case b == a:
			lo[b], hi[b] = c0, c1
		case b < a:
			lo[b], hi[b] = -depth, lay.N[b]+depth
		default:
			hi[b] = lay.N[b]
		}
	}
	return grid.Bounds3D{X0: lo[0], X1: hi[0], Y0: lo[1], Y1: hi[1], Z0: lo[2], Z1: hi[2]}
}

// pack packs box b of every field into one slab, field by field, each in
// storage order.
func pack[F haloField](tr slabTransport, fields []F, b grid.Bounds3D) []float64 {
	msg := tr.slab(len(fields) * b.Cells())
	for _, f := range fields {
		msg = appendBox(msg, f.Layout(), f.DataOrNil(), b)
	}
	return msg
}

// appendBox appends box b of data, a field stored in layout lay, to buf
// in storage order: z outermost, then y, then x-rows.
func appendBox(buf []float64, lay grid.Layout, data []float64, b grid.Bounds3D) []float64 {
	o0, sj, sk, w := lay.Off(b.X0, 0, 0), lay.St[1], lay.St[2], b.X1-b.X0
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			o := o0 + k*sk + j*sj
			buf = append(buf, data[o:o+w]...)
		}
	}
	return buf
}

// copyBox is appendBox's inverse: it fills box b of data from the front
// of src and returns the number of values it used.
func copyBox(lay grid.Layout, data []float64, b grid.Bounds3D, src []float64) int {
	o0, sj, sk, w := lay.Off(b.X0, 0, 0), lay.St[1], lay.St[2], b.X1-b.X0
	pos := 0
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			o := o0 + k*sk + j*sj
			copy(data[o:o+w], src[pos:pos+w])
			pos += w
		}
	}
	return pos
}

// interior is the interior box of a layout.
func interior(lay grid.Layout) grid.Bounds3D {
	return grid.Bounds3D{X1: lay.N[0], Y1: lay.N[1], Z1: lay.N[2]}
}

// shape prints extents as the error messages do: NXxNY in 2D, NXxNYxNZ in
// 3D.
func shape(dims int, n [3]int) string {
	if dims == 2 {
		return fmt.Sprintf("%dx%d", n[0], n[1])
	}
	return fmt.Sprintf("%dx%dx%d", n[0], n[1], n[2])
}

// gatherSource checks a gather's local field against rank r's box and
// returns the box; the first check is that the gather's dimensionality
// is the decomposition's.
func (d *decomposition) gatherSource(dims, r int, local grid.Layout) (grid.Extent, error) {
	if dims != d.dims {
		return grid.Extent{}, fmt.Errorf("comm: %dD gather on a %dD-partition communicator", dims, d.dims)
	}
	ext := d.boxes[r]
	if want := [3]int{ext.NX(), ext.NY(), ext.NZ()}; local.N != want {
		return ext, fmt.Errorf("comm: local field %s does not match extent %s", shape(dims, local.N), shape(dims, want))
	}
	return ext, nil
}

// gatherDestination checks rank 0's destination field against the
// global extents n.
func gatherDestination[F haloField](dst F, dims int, n [3]int) error {
	if dst.DataOrNil() == nil {
		return fmt.Errorf("comm: rank 0 needs a destination field")
	}
	if l := dst.Layout(); l.N != n {
		return fmt.Errorf("comm: destination %s does not match global %s", shape(dims, l.N), shape(dims, n))
	}
	return nil
}

// placeInterior copies the interior of src (layout sl) into dst (layout
// dl), cell (0, 0, 0) landing on box b's low corner.
func placeInterior(dl grid.Layout, dst []float64, b grid.Extent, sl grid.Layout, src []float64) {
	nx := sl.N[0]
	for k := range sl.N[2] {
		for j := range sl.N[1] {
			o, s := dl.Off(b.X0, b.Y0+j, b.Z0+k), sl.Off(0, j, k)
			copy(dst[o:o+nx], src[s:s+nx])
		}
	}
}
