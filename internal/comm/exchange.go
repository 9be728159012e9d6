package comm

import (
	"fmt"

	"tealeaf/internal/grid"
)

// slabTransport abstracts how one packed halo slab travels between a
// pair of ranks: over the Hub's buffered mailbox channels or over a TCP
// peer connection. Both Exchange implementations share the one phase
// core below, so the corner-correct ordering and its validation rules
// exist exactly once — the backends are bit-identical by construction,
// not by parallel maintenance. The side passed to sendSlab and recvSlab
// is the grid.Side of the RECEIVING rank at which the slab applies (the Hub's
// mailbox index). Implementations must make sendSlab non-blocking with
// respect to the peer's progress (buffered channel / a non-blocking
// write attempt whose unwritten tail goes to a writer queue): the core
// posts all of a phase's sends before draining its receives, and that is
// only deadlock-free if a send never waits for the peer to receive.
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

// exchange2D is the backend-independent two-phase corner-correct halo
// exchange — exactly TeaLeaf's update_halo ordering: x-direction strips
// over interior rows, then y-direction strips spanning the freshly
// filled x-halos, so corner halo cells receive the diagonal neighbour's
// data without explicit corner messages. Physical sides are filled by
// zero-flux mirroring in the same phase order. Returns the message count
// and byte volume for the caller's trace.
func exchange2D(tr slabTransport, part *grid.Partition, rank int, phys PhysicalSides, depth int, fields []*grid.Field2D) (int, int64, error) {
	g := fields[0].Grid
	if depth < 1 || depth > g.Halo {
		return 0, 0, fmt.Errorf("comm: exchange depth %d outside [1,%d]", depth, g.Halo)
	}
	// A sub-domain thinner than the depth cannot supply its neighbour's
	// halo from interior cells: packing would send stale halo data.
	// Validate against the partition-wide minimum so every rank reaches
	// the same verdict (a per-rank check could leave peers deadlocked
	// mid-protocol).
	if mnx, mny := part.MinExtent(); depth > mnx || depth > mny {
		return 0, 0, fmt.Errorf("comm: exchange depth %d exceeds the smallest sub-domain extent %dx%d", depth, mnx, mny)
	}
	for _, f := range fields {
		if f.Grid.NX != g.NX || f.Grid.NY != g.NY || f.Grid.Halo != g.Halo {
			return 0, 0, fmt.Errorf("comm: all fields in one exchange must share grid shape")
		}
	}
	left := part.Neighbor(rank, grid.Left)
	right := part.Neighbor(rank, grid.Right)
	down := part.Neighbor(rank, grid.Down)
	up := part.Neighbor(rank, grid.Up)

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

	// --- Phase X (interior rows) ---
	for _, f := range fields {
		f.ReflectHalosSides(depth, phys.Left, phys.Right, false, false)
	}
	// Send before receive: deadlock-free because sendSlab is buffered.
	if right >= 0 {
		if err := send(right, grid.Left, packX(tr, fields, g.NX-depth, g.NX, depth)); err != nil {
			return messages, bytes, err
		}
	}
	if left >= 0 {
		if err := send(left, grid.Right, packX(tr, fields, 0, depth, depth)); err != nil {
			return messages, bytes, err
		}
	}
	xLen := len(fields) * depth * g.NY
	if left >= 0 {
		msg, err := tr.recvSlab(left, grid.Left, xLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackX(fields, msg, -depth, 0, depth)
	}
	if right >= 0 {
		msg, err := tr.recvSlab(right, grid.Right, xLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackX(fields, msg, g.NX, g.NX+depth, depth)
	}

	// --- Phase Y (spans x-halos filled above) ---
	for _, f := range fields {
		f.ReflectHalosSides(depth, false, false, phys.Down, phys.Up)
	}
	if up >= 0 {
		if err := send(up, grid.Down, packY(tr, fields, g.NY-depth, g.NY, depth)); err != nil {
			return messages, bytes, err
		}
	}
	if down >= 0 {
		if err := send(down, grid.Up, packY(tr, fields, 0, depth, depth)); err != nil {
			return messages, bytes, err
		}
	}
	yLen := len(fields) * depth * (g.NX + 2*depth)
	if down >= 0 {
		msg, err := tr.recvSlab(down, grid.Down, yLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackY(fields, msg, -depth, 0, depth)
	}
	if up >= 0 {
		msg, err := tr.recvSlab(up, grid.Up, yLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackY(fields, msg, g.NY, g.NY+depth, depth)
	}

	return messages, bytes, nil
}

// exchange3D is the backend-independent three-phase extension of
// exchange2D: x slabs over interior rows and planes, y slabs spanning
// the freshly filled x-halos, z slabs spanning both — every edge and
// corner halo cell receives its diagonal neighbour's data without
// explicit diagonal messages.
func exchange3D(tr slabTransport, part *grid.Partition3D, rank int, phys PhysicalSides3D, depth int, fields []*grid.Field3D) (int, int64, error) {
	g := fields[0].Grid
	if depth < 1 || depth > g.Halo {
		return 0, 0, fmt.Errorf("comm: exchange depth %d outside [1,%d]", depth, g.Halo)
	}
	// As in 2D: the partition-wide minimum keeps the verdict identical on
	// every rank.
	if mnx, mny, mnz := part.MinExtent(); depth > mnx || depth > mny || depth > mnz {
		return 0, 0, fmt.Errorf("comm: exchange depth %d exceeds the smallest sub-domain extent %dx%dx%d", depth, mnx, mny, mnz)
	}
	for _, f := range fields {
		if f.Grid.NX != g.NX || f.Grid.NY != g.NY || f.Grid.NZ != g.NZ || f.Grid.Halo != g.Halo {
			return 0, 0, fmt.Errorf("comm: all fields in one exchange must share grid shape")
		}
	}
	left := part.Neighbor(rank, grid.Left)
	right := part.Neighbor(rank, grid.Right)
	down := part.Neighbor(rank, grid.Down)
	up := part.Neighbor(rank, grid.Up)
	back := part.Neighbor(rank, grid.Back)
	front := part.Neighbor(rank, grid.Front)

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

	// --- Phase X (interior rows and planes) ---
	for _, f := range fields {
		f.ReflectHalosSides(depth, phys.Left, phys.Right, false, false, false, false)
	}
	if right >= 0 {
		if err := send(right, grid.Left, packX3(tr, fields, g.NX-depth, g.NX, depth)); err != nil {
			return messages, bytes, err
		}
	}
	if left >= 0 {
		if err := send(left, grid.Right, packX3(tr, fields, 0, depth, depth)); err != nil {
			return messages, bytes, err
		}
	}
	xLen := len(fields) * depth * g.NY * g.NZ
	if left >= 0 {
		msg, err := tr.recvSlab(left, grid.Left, xLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackX3(fields, msg, -depth, 0, depth)
	}
	if right >= 0 {
		msg, err := tr.recvSlab(right, grid.Right, xLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackX3(fields, msg, g.NX, g.NX+depth, depth)
	}

	// --- Phase Y (spans the x-halos filled above) ---
	for _, f := range fields {
		f.ReflectHalosSides(depth, false, false, phys.Down, phys.Up, false, false)
	}
	if up >= 0 {
		if err := send(up, grid.Down, packY3(tr, fields, g.NY-depth, g.NY, depth)); err != nil {
			return messages, bytes, err
		}
	}
	if down >= 0 {
		if err := send(down, grid.Up, packY3(tr, fields, 0, depth, depth)); err != nil {
			return messages, bytes, err
		}
	}
	yLen := len(fields) * depth * (g.NX + 2*depth) * g.NZ
	if down >= 0 {
		msg, err := tr.recvSlab(down, grid.Down, yLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackY3(fields, msg, -depth, 0, depth)
	}
	if up >= 0 {
		msg, err := tr.recvSlab(up, grid.Up, yLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackY3(fields, msg, g.NY, g.NY+depth, depth)
	}

	// --- Phase Z (spans the x- and y-halos filled above) ---
	for _, f := range fields {
		f.ReflectHalosSides(depth, false, false, false, false, phys.Back, phys.Front)
	}
	if front >= 0 {
		if err := send(front, grid.Back, packZ3(tr, fields, g.NZ-depth, g.NZ, depth)); err != nil {
			return messages, bytes, err
		}
	}
	if back >= 0 {
		if err := send(back, grid.Front, packZ3(tr, fields, 0, depth, depth)); err != nil {
			return messages, bytes, err
		}
	}
	zLen := len(fields) * depth * (g.NX + 2*depth) * (g.NY + 2*depth)
	if back >= 0 {
		msg, err := tr.recvSlab(back, grid.Back, zLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackZ3(fields, msg, -depth, 0, depth)
	}
	if front >= 0 {
		msg, err := tr.recvSlab(front, grid.Front, zLen)
		if err != nil {
			return messages, bytes, err
		}
		unpackZ3(fields, msg, g.NZ, g.NZ+depth, depth)
	}

	return messages, bytes, nil
}
