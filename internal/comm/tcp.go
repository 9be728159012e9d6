package comm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"tealeaf/internal/grid"
	"tealeaf/internal/place"
	"tealeaf/internal/stats"
)

// TCP is the real-network communicator: one OS process per rank, peers
// reached over persistent TCP connections carrying the length-prefixed
// frame protocol in wire.go. It implements the same Communicator contract
// as the goroutine Hub — two-phase (2D) / three-phase (3D) corner-correct
// halo exchanges, fused multi-value reductions, interior gathers and a
// barrier — so the solver stack is byte-for-byte unaware of which fabric
// it runs on; the Hub is the in-process reference, TCP takes the same
// solve across actual machines.
//
// Connections are created lazily on first use and kept for the life of
// the communicator: a halo exchange only ever touches grid neighbours, a
// recursive-doubling reduction touches the log₂(P) butterfly partners,
// and gathers touch rank 0. For each pair the lower rank dials and the
// higher rank accepts, so exactly one connection exists per pair and both
// ends agree on it without coordination.
//
// Methods must be called from one goroutine only (the rank's driver), as
// with RankComm. Exchange and the gathers return descriptive errors on
// any transport or protocol failure. The reduction methods have no error
// return in the Communicator contract; a transport failure inside one is
// unrecoverable mid-solve (exactly like a failed MPI_Allreduce), so they
// panic with a *TCPError — RunTCP and Protect convert that into an
// ordinary error at the rank boundary.
type TCP struct {
	blockingStart
	rank, size int
	peers      []string
	dec        *decomposition
	// part is the partition as configured: the geometry the handshake
	// sends and checks.
	part        *grid.Partition
	dialTimeout time.Duration

	ln    net.Listener
	trace stats.Trace
	// apart is set by RunTCP, whose ranks are goroutines of one process
	// and so change threads whenever a receive parks them; nil otherwise.
	apart *place.Group
	// release gives back the claim NewTCP made on the host's CPUs for
	// the peers that run on it (see loopbackPeers).
	release func()

	// Driver-only scratch: the outgoing halo slab being packed, and the
	// accumulator and operand of the one reduction that can be running.
	pack    []float64
	acc     []float64
	scalars [2]float64

	mu      sync.Mutex
	conns   map[int]*peerConn
	connSig chan struct{} // closed+replaced whenever conns changes
	closed  bool

	acceptDone chan struct{}
}

var _ Communicator = (*TCP)(nil)

// TCPConfig describes one rank of a real-network run.
type TCPConfig struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's address as host:port, indexed by rank
	// (including this rank's own entry). Every rank must receive the same
	// list in the same order.
	Peers []string
	// Part is the domain decomposition, 2D or 3D; its rank count must
	// equal len(Peers). Every peer must be built over the identical
	// partition — the handshake verifies this.
	Part *grid.Partition
	// DialTimeout bounds connection establishment: how long to keep
	// re-dialing a peer that is not up yet, and how long to wait for a
	// lower-ranked peer to dial us. Default 10s.
	DialTimeout time.Duration
	// Listener optionally supplies a pre-bound listener (used by RunTCP so
	// port assignment and listening cannot race). When nil, NewTCP listens
	// on ListenAddr, or on Peers[Rank] if that is empty too.
	Listener net.Listener
	// ListenAddr optionally overrides the listen address, for deployments
	// where the address peers dial (Peers[Rank]) is not bindable locally
	// (NAT, container port mapping). Ignored when Listener is set.
	ListenAddr string
}

// TCPError wraps an unrecoverable transport failure raised inside a
// reduction or barrier (which cannot return errors through the
// Communicator contract). Protect and RunTCP convert it back into an
// ordinary error.
type TCPError struct{ Err error }

func (e *TCPError) Error() string { return e.Err.Error() }
func (e *TCPError) Unwrap() error { return e.Err }

// NewTCP starts one rank of a real-network run: it binds the listener and
// begins accepting peer connections, but does not require any peer to be
// up yet — connections are established lazily, with redials until
// DialTimeout, so ranks may start in any order.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	return newTCP(cfg, false)
}

// newTCP is NewTCP for the ranks of one process too: RunTCP's peers are
// goroutines beside this one, claimed on the host's CPUs as threads of
// this process, not as processes of their own.
func newTCP(cfg TCPConfig, inProcess bool) (*TCP, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("comm: tcp: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("comm: tcp: rank %d outside [0,%d)", cfg.Rank, n)
	}
	if cfg.Part == nil {
		return nil, fmt.Errorf("comm: tcp: a partition (Part) is required")
	}
	dec := decompose(cfg.Part)
	if ranks := dec.ranks(); ranks != n {
		return nil, fmt.Errorf("comm: tcp: partition has %d ranks but the peer list has %d entries", ranks, n)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	t := &TCP{
		rank:        cfg.Rank,
		size:        n,
		peers:       cfg.Peers,
		dec:         dec,
		part:        cfg.Part,
		dialTimeout: cfg.DialTimeout,
		conns:       make(map[int]*peerConn),
		connSig:     make(chan struct{}),
		acceptDone:  make(chan struct{}),
	}
	t.blockingStart.sumN = t.AllReduceSumN
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.ListenAddr
		if addr == "" {
			addr = cfg.Peers[cfg.Rank]
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("comm: tcp rank %d: listen on %s: %w", cfg.Rank, addr, err)
		}
	}
	t.ln = ln
	t.release = func() {}
	if !inProcess {
		t.release = place.ClaimPeers(loopbackPeers(cfg.Peers, cfg.Rank))
	}
	go t.acceptLoop()
	return t, nil
}

// loopbackPeers counts the peers other than rank whose address is on this
// host's loopback interface: processes that compete with this one for its
// CPUs. Names are not resolved; only "localhost" and loopback IPs count.
func loopbackPeers(peers []string, rank int) int {
	n := 0
	for r, addr := range peers {
		host, _, err := net.SplitHostPort(addr)
		if err != nil || r == rank {
			continue
		}
		if ip := net.ParseIP(host); host == "localhost" || ip != nil && ip.IsLoopback() {
			n++
		}
	}
	return n
}

// Rank implements Communicator.
func (t *TCP) Rank() int { return t.rank }

// Size implements Communicator.
func (t *TCP) Size() int { return t.size }

// Trace implements Communicator.
func (t *TCP) Trace() *stats.Trace { return &t.trace }

// Physical implements Communicator. The communicator must have been built
// over a 2D partition.
func (t *TCP) Physical() PhysicalSides { return t.dec.physical(t.rank) }

// Physical3D implements Communicator. The communicator must have been
// built over a 3D partition.
func (t *TCP) Physical3D() PhysicalSides3D { return t.dec.physical3D(t.rank) }

// Close shuts the communicator down gracefully: a Bye frame is flushed on
// every peer connection (so a peer still reading reports "peer shut down"
// rather than a bare reset), then connections and the listener close.
// Safe to call more than once. Callers should reach a synchronisation
// point (the final gather or a barrier) before closing, as with any MPI
// finalize.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.release()
	conns := make([]*peerConn, 0, len(t.conns))
	for _, pc := range t.conns {
		conns = append(conns, pc)
	}
	close(t.connSig)
	t.connSig = make(chan struct{})
	t.mu.Unlock()

	err := t.ln.Close()
	<-t.acceptDone
	for _, pc := range conns {
		pc.shutdown()
	}
	return err
}

// peerConn is one persistent connection to a peer rank. The rank's driver
// goroutine is the only reader and, in the steady state, the only writer:
// a send is one non-blocking write attempt on the driver (see write). The
// writer goroutine exists for what such an attempt leaves behind — the
// tail the kernel would not take, and the frames posted while that tail
// is still pending — so a send never waits for the peer even when both
// ends of a pair post their halo slabs simultaneously (the same
// deadlock-freedom the Hub gets from buffered mailboxes).
type peerConn struct {
	rank int
	nc   net.Conn
	raw  *rawWriter
	fr   frameReader

	// Driver-only scratch, reused frame after frame: sbuf is the frame
	// being encoded (an inline write has completed when write returns, and
	// a queued tail is a copy), vals the frame most recently decoded
	// (consumed by unpack/combine/gather before the next receive).
	sbuf []byte
	vals []float64

	mu   sync.Mutex
	wake sync.Cond // signalled when queue or closing changes; L is &mu
	// queue holds what the writer goroutine still has to put on the wire,
	// oldest first; queue[0] stays until its Write has returned, so an
	// empty queue means no write is in progress and the driver may write.
	queue   [][]byte
	sendErr error // the first failed write, inline or queued
	closing bool
	done    chan struct{} // writer exited

	closeOnce sync.Once
}

// newPeerConn takes over a handshaken connection. fr is the reader the
// handshake used: it may already hold the peer's first frames.
func newPeerConn(rank int, nc net.Conn, fr frameReader) *peerConn {
	fr.raw = newRawReader(nc)
	pc := &peerConn{rank: rank, nc: nc, raw: newRawWriter(nc), fr: fr, done: make(chan struct{})}
	pc.wake.L = &pc.mu
	go pc.writeLoop()
	return pc
}

// write puts one encoded frame on the wire, or in line for it, without
// ever waiting for the peer. With nothing queued it makes a single
// non-blocking write attempt on the calling goroutine; whatever the
// kernel does not take goes to the writer goroutine, and while anything
// is queued later frames queue behind it, so frames leave in the order
// they were posted. The caller may reuse frame as soon as write returns.
func (pc *peerConn) write(frame []byte) error {
	pc.mu.Lock()
	err, queued := pc.sendErr, len(pc.queue) > 0
	if err == nil && queued {
		pc.enqueueLocked(frame)
	}
	pc.mu.Unlock()
	if err != nil || queued {
		return err
	}
	// The queue is empty, so the writer goroutine is idle and only this
	// goroutine can fill the queue: the socket is ours for the attempt.
	n, err := pc.raw.tryWrite(frame)
	if err != nil {
		pc.fail(err)
		return err
	}
	if n < len(frame) {
		pc.mu.Lock()
		pc.enqueueLocked(frame[n:])
		pc.mu.Unlock()
	}
	return nil
}

func (pc *peerConn) enqueueLocked(b []byte) {
	pc.queue = append(pc.queue, append([]byte(nil), b...))
	pc.wake.Signal()
}

// fail records the connection's first send failure and closes the socket:
// nothing later can be delivered in order, a read blocked on the peer
// must not wait for an answer to bytes that never left, and every later
// send and receive reports the recorded cause.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.sendErr == nil {
		pc.sendErr = err
	}
	pc.queue = nil
	pc.mu.Unlock()
	_ = pc.nc.Close()
}

func (pc *peerConn) sendError() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.sendErr
}

func (pc *peerConn) writeLoop() {
	defer close(pc.done)
	for {
		pc.mu.Lock()
		for len(pc.queue) == 0 && !pc.closing {
			pc.wake.Wait()
		}
		if len(pc.queue) == 0 { // closing, and everything queued has left
			pc.mu.Unlock()
			_ = pc.nc.Close()
			return
		}
		buf := pc.queue[0]
		pc.mu.Unlock()

		_, err := pc.nc.Write(buf)
		if err != nil {
			pc.fail(err)
			continue
		}
		pc.mu.Lock()
		pc.queue[0] = nil
		pc.queue = pc.queue[1:]
		pc.mu.Unlock()
	}
}

// shutdown queues a Bye behind whatever is still unsent and asks the
// writer to close the socket once it has left. The write deadline bounds
// the whole sequence: if the writer is wedged in a Write against a
// partitioned or stalled peer (TCP window full), the deadline errors it
// out, so Close never hangs on a dead network.
func (pc *peerConn) shutdown() {
	pc.closeOnce.Do(func() {
		_ = pc.nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		pc.mu.Lock()
		if pc.sendErr == nil {
			pc.queue = append(pc.queue, appendFloatFrame(nil, frameBye, 0, nil))
		}
		pc.closing = true
		pc.wake.Signal()
		pc.mu.Unlock()
	})
	<-pc.done
}

// acceptLoop admits peer connections for the life of the communicator:
// each is handshaken on its own goroutine and registered under the peer's
// rank once verified.
func (t *TCP) acceptLoop() {
	defer close(t.acceptDone)
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal; lazy dial waiters time out
		}
		go t.admit(nc)
	}
}

// admit runs the accept side of the handshake: read Hello, verify rank
// and geometry, answer Welcome (or Reject with the reason) and register
// the connection.
func (t *TCP) admit(nc net.Conn) {
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	fr := frameReader{r: nc}
	typ, _, payload, err := fr.next()
	if err != nil {
		_ = nc.Close()
		return
	}
	reject := func(reason string) {
		buf := appendFrameHeader(nil, frameReject, 0, len(reason))
		_, _ = nc.Write(append(buf, reason...))
		_ = nc.Close()
	}
	if typ != frameHello {
		reject(fmt.Sprintf("expected hello frame, got %s", frameTypeName(typ)))
		return
	}
	peer, err := decodeHandshake(payload)
	if err != nil {
		reject(err.Error())
		return
	}
	if err := t.checkGeometry(peer); err != nil {
		reject(err.Error())
		return
	}
	if peer.rank > t.rank {
		reject(fmt.Sprintf("connection direction violation: rank %d must wait for rank %d to dial (lower rank dials)", peer.rank, t.rank))
		return
	}
	// Check for duplicates BEFORE answering Welcome, so a misconfigured
	// second process claiming an already-connected rank reads the reason
	// instead of a successful handshake followed by a confusing EOF.
	t.mu.Lock()
	dup := t.closed || t.conns[peer.rank] != nil
	t.mu.Unlock()
	if dup {
		reject("duplicate or late connection")
		return
	}
	if _, err := nc.Write(t.handshakeFor().encode(frameWelcome)); err != nil {
		_ = nc.Close()
		return
	}
	_ = nc.SetDeadline(time.Time{})

	t.mu.Lock()
	if t.closed || t.conns[peer.rank] != nil {
		// Lost a (misconfiguration-only) race since the pre-check above;
		// the loser's dialer sees the connection close after Welcome.
		t.mu.Unlock()
		_ = nc.Close()
		return
	}
	t.conns[peer.rank] = newPeerConn(peer.rank, nc, fr)
	close(t.connSig)
	t.connSig = make(chan struct{})
	t.mu.Unlock()
}

// conn returns the persistent connection to peer, establishing it on
// first use: the lower rank dials (with redials until the timeout, so
// ranks may start in any order), the higher rank waits for the dial to
// arrive.
func (t *TCP) conn(peer int) (*peerConn, error) {
	if peer == t.rank || peer < 0 || peer >= t.size {
		return nil, fmt.Errorf("comm: tcp rank %d: no connection to rank %d", t.rank, peer)
	}
	t.mu.Lock()
	if pc := t.conns[peer]; pc != nil {
		t.mu.Unlock()
		return pc, nil
	}
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
	}
	t.mu.Unlock()

	if t.rank < peer {
		return t.dial(peer)
	}
	return t.waitForDial(peer)
}

// dial establishes the connection to a higher-ranked peer, retrying
// refused/unreachable dials until the timeout so process start-up order
// does not matter, then runs the client side of the handshake.
func (t *TCP) dial(peer int) (*peerConn, error) {
	addr := t.peers[peer]
	deadline := time.Now().Add(t.dialTimeout)
	var nc net.Conn
	var err error
	for backoff := 5 * time.Millisecond; ; backoff = min(2*backoff, 200*time.Millisecond) {
		nc, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("comm: tcp rank %d: dialing rank %d at %s: timed out after %v (last error: %w)",
				t.rank, peer, addr, t.dialTimeout, err)
		}
		time.Sleep(backoff)
	}
	fail := func(err error) (*peerConn, error) {
		_ = nc.Close()
		return nil, fmt.Errorf("comm: tcp rank %d: handshake with rank %d at %s: %w", t.rank, peer, addr, err)
	}
	// The handshake gets a fresh budget: a peer that came up just inside
	// the dial window should not fail its Hello/Welcome round-trip on the
	// few milliseconds left of the dial deadline.
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	if _, err := nc.Write(t.handshakeFor().encode(frameHello)); err != nil {
		return fail(err)
	}
	fr := frameReader{r: nc}
	typ, _, payload, err := fr.next()
	if err != nil {
		return fail(err)
	}
	switch typ {
	case frameWelcome:
	case frameReject:
		return fail(fmt.Errorf("rejected by peer: %s", payload))
	default:
		return fail(fmt.Errorf("expected welcome frame, got %s", frameTypeName(typ)))
	}
	hs, err := decodeHandshake(payload)
	if err != nil {
		return fail(err)
	}
	if hs.rank != peer {
		return fail(fmt.Errorf("address %s answered as rank %d, expected rank %d (peer list out of order?)", addr, hs.rank, peer))
	}
	if err := t.checkGeometry(hs); err != nil {
		return fail(err)
	}
	_ = nc.SetDeadline(time.Time{})

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = nc.Close()
		return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
	}
	if pc := t.conns[peer]; pc != nil { // lost a race we cannot actually have; be safe
		_ = nc.Close()
		return pc, nil
	}
	pc := newPeerConn(peer, nc, fr)
	t.conns[peer] = pc
	close(t.connSig)
	t.connSig = make(chan struct{})
	return pc, nil
}

// waitForDial blocks until a lower-ranked peer's connection has been
// admitted, or the dial timeout passes.
func (t *TCP) waitForDial(peer int) (*peerConn, error) {
	timer := time.NewTimer(t.dialTimeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		if pc := t.conns[peer]; pc != nil {
			t.mu.Unlock()
			return pc, nil
		}
		if t.closed {
			t.mu.Unlock()
			return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
		}
		sig := t.connSig
		t.mu.Unlock()
		select {
		case <-sig:
		case <-timer.C:
			return nil, fmt.Errorf("comm: tcp rank %d: timed out after %v waiting for rank %d to connect (is it running, and does its peer list match ours?)",
				t.rank, t.dialTimeout, peer)
		}
	}
}

// send posts one frame to peer: encoded into the connection's reusable
// buffer and handed to peerConn.write, which never waits for the peer, so
// matching send/send+recv/recv sequences between a pair cannot deadlock.
// The frame is serialised before send returns, so the caller may reuse
// vals at once.
func (t *TCP) send(peer int, typ, tag byte, vals []float64) error {
	// Guard the frame cap on the sender, where the cause is nameable:
	// without this a huge gather block would either trip the receiver's
	// cap with a misleading "corrupt stream?" error or, past 2^29 values,
	// silently wrap the uint32 length prefix and desync the stream.
	if n := 8 * len(vals); n > maxFrameBytes {
		return fmt.Errorf("comm: tcp rank %d: %s message to rank %d is %d bytes, exceeding the %d-byte frame cap (block too large for one frame)",
			t.rank, frameTypeName(typ), peer, n, maxFrameBytes)
	}
	pc, err := t.conn(peer)
	if err != nil {
		return err
	}
	pc.sbuf = appendFloatFrame(pc.sbuf[:0], typ, tag, vals)
	err = pc.write(pc.sbuf)
	if cap(pc.sbuf) > scratchStepBytes {
		pc.sbuf = nil
	}
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d: sending %s to rank %d: %w", t.rank, frameTypeName(typ), peer, err)
	}
	return nil
}

// recvFloats reads the next frame from peer, which must be a
// (wantType, wantTag) frame: every collective receives from a peer in the
// order that peer sent, so any other frame is a protocol desync. A Bye,
// a transport failure or a desync is a descriptive error. The returned
// slice is the connection's decode buffer: it is valid until the next
// receive from the same peer.
func (t *TCP) recvFloats(peer int, wantType, wantTag byte, op string) ([]float64, error) {
	pc, err := t.conn(peer)
	if err != nil {
		return nil, err
	}
	typ, tag, payload, err := pc.fr.next()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
			err = fmt.Errorf("comm: tcp rank %d: connection to rank %d lost during %s: %w", t.rank, peer, op, err)
		} else {
			err = fmt.Errorf("comm: tcp rank %d: reading from rank %d during %s: %w", t.rank, peer, op, err)
		}
		if serr := pc.sendError(); serr != nil {
			err = fmt.Errorf("%w (an earlier send to rank %d failed: %v)", err, peer, serr)
		}
		return nil, err
	}
	if typ == frameBye {
		return nil, fmt.Errorf("comm: tcp rank %d: rank %d shut down mid-%s", t.rank, peer, op)
	}
	if typ != wantType || tag != wantTag {
		return nil, fmt.Errorf("comm: tcp rank %d: protocol desync during %s: waiting for %s (tag %d) from rank %d, got %s (tag %d)",
			t.rank, op, frameTypeName(wantType), wantTag, peer, frameTypeName(typ), tag)
	}
	t.apart.Check(t.rank) // next may have parked this goroutine: it can be on another thread now
	return t.decode(pc, payload, op)
}

// decode unpacks a float payload into pc's reusable decode buffer.
func (t *TCP) decode(pc *peerConn, payload []byte, op string) ([]float64, error) {
	vals, err := decodeFloats(floatScratch(pc.vals), payload)
	if err != nil {
		return nil, fmt.Errorf("comm: tcp rank %d: %s frame from rank %d: %w", t.rank, op, pc.rank, err)
	}
	pc.vals = vals
	return vals, nil
}

// tcpSlabs carries exchange slabs over the peer connections; it is the
// TCP backend's slabTransport for the shared exchange core.
type tcpSlabs struct{ t *TCP }

// slab hands out the communicator's one pack buffer: send has serialised
// a slab by the time sendSlab returns.
func (s tcpSlabs) slab(n int) []float64 {
	s.t.pack = slices.Grow(floatScratch(s.t.pack), n)
	return s.t.pack
}

// floatScratch empties a scratch buffer whose last contents have been
// consumed for refilling — or lets it go, when an outsized frame grew it
// past scratchStepBytes.
func floatScratch(buf []float64) []float64 {
	if 8*cap(buf) > scratchStepBytes {
		return nil
	}
	return buf[:0]
}

func (s tcpSlabs) sendSlab(to int, side grid.Side, msg []float64) error {
	return s.t.send(to, frameExchange, byte(side), msg)
}

func (s tcpSlabs) recvSlab(from int, side grid.Side, wantLen int) ([]float64, error) {
	msg, err := s.t.recvFloats(from, frameExchange, byte(side), "exchange")
	if err != nil {
		return nil, err
	}
	if len(msg) != wantLen {
		return nil, fmt.Errorf("comm: tcp rank %d: exchange slab from rank %d has %d values, want %d (mismatched field sets or grid shapes across ranks?)",
			s.t.rank, from, len(msg), wantLen)
	}
	return msg, nil
}

// Exchange implements Communicator over the wire. The two-phase
// corner-correct core (validation, reflect/pack/send/recv/unpack) is
// literally the Hub's — shared in exchange.go — so the two backends are
// bit-identical by construction; only the slab transport differs.
func (t *TCP) Exchange(depth int, fields ...*grid.Field2D) error {
	return exchange(tcpSlabs{t}, t.dec.rank(t.rank), &t.trace, 2, depth, fields)
}

// Exchange3D implements Communicator: Exchange's core with its z phase.
func (t *TCP) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return exchange(tcpSlabs{t}, t.dec.rank(t.rank), &t.trace, 3, depth, fields)
}

func (t *TCP) combine(op reduceOp, acc, other []float64) error {
	if len(other) != len(acc) {
		return fmt.Errorf("comm: tcp rank %d: reduction value-count mismatch: we contributed %d values, a peer contributed %d (every rank must pass the same number of values to each reduction)",
			t.rank, len(acc), len(other))
	}
	for i, v := range other {
		switch op {
		case opSum:
			acc[i] += v
		case opMax:
			if v > acc[i] {
				acc[i] = v
			}
		}
	}
	return nil
}

// reduce runs one fused allreduce over all ranks: log₂(P) rounds for
// power-of-two rank counts; otherwise the trailing ranks fold their
// contribution into a partner first and receive the result back after the
// butterfly (the classic Rabenseifner pre/post step). Each round sends
// before it receives, and send never waits for the peer, so partners
// cannot deadlock; round tags catch schedule desync. Reductions cannot
// nest (one driver goroutine), so they share one accumulator.
func (t *TCP) reduce(op reduceOp, vals []float64) ([]float64, error) {
	if t.size == 1 {
		return vals, nil
	}
	p2 := 1 // largest power of two ≤ size
	for p2*2 <= t.size {
		p2 *= 2
	}
	rem := t.size - p2 // ranks folded in by the pre/post step
	if t.rank >= p2 {
		if err := t.send(t.rank-p2, frameReduce, tagReduceFold, vals); err != nil {
			return nil, err
		}
		res, err := t.recvFloats(t.rank-p2, frameReduce, tagReduceResult, "reduction")
		if err != nil {
			return nil, err
		}
		if len(res) != len(vals) {
			return nil, fmt.Errorf("comm: tcp rank %d: reduction result has %d values, want %d", t.rank, len(res), len(vals))
		}
		copy(vals, res)
		return vals, nil
	}
	t.acc = append(t.acc[:0], vals...)
	acc := t.acc
	if t.rank < rem {
		other, err := t.recvFloats(t.rank+p2, frameReduce, tagReduceFold, "reduction")
		if err != nil {
			return nil, err
		}
		if err := t.combine(op, acc, other); err != nil {
			return nil, err
		}
	}
	for mask, round := 1, byte(0); mask < p2; mask, round = mask<<1, round+1 {
		partner := t.rank ^ mask
		if err := t.send(partner, frameReduce, round, acc); err != nil {
			return nil, err
		}
		other, err := t.recvFloats(partner, frameReduce, round, "reduction")
		if err != nil {
			return nil, err
		}
		if err := t.combine(op, acc, other); err != nil {
			return nil, err
		}
	}
	if t.rank < rem {
		if err := t.send(t.rank+p2, frameReduce, tagReduceResult, acc); err != nil {
			return nil, err
		}
	}
	copy(vals, acc)
	return vals, nil
}

// mustReduce adapts reduce to the error-free reduction contract: a
// transport failure mid-collective is unrecoverable (the solve cannot
// proceed with partial sums), so it panics with a *TCPError that Protect
// and RunTCP convert back into an error at the rank boundary.
func (t *TCP) mustReduce(op reduceOp, vals []float64) []float64 {
	res, err := t.reduce(op, vals)
	if err != nil {
		panic(&TCPError{Err: err})
	}
	return res
}

// AllReduceSum implements Communicator.
func (t *TCP) AllReduceSum(x float64) float64 {
	t.trace.AddReduction(1)
	t.scalars[0] = x
	return t.mustReduce(opSum, t.scalars[:1])[0]
}

// AllReduceSum2 implements Communicator: two sums, one reduction latency.
func (t *TCP) AllReduceSum2(x, y float64) (float64, float64) {
	t.trace.AddReduction(2)
	t.scalars[0], t.scalars[1] = x, y
	r := t.mustReduce(opSum, t.scalars[:2])
	return r[0], r[1]
}

// AllReduceSumN implements Communicator: len(vals) sums, one reduction
// latency (one butterfly, every round carrying all the values).
func (t *TCP) AllReduceSumN(vals []float64) []float64 {
	t.trace.AddReduction(len(vals))
	return t.mustReduce(opSum, vals)
}

// AllReduceMax implements Communicator.
func (t *TCP) AllReduceMax(x float64) float64 {
	t.trace.AddReduction(1)
	t.scalars[0] = x
	return t.mustReduce(opMax, t.scalars[:1])[0]
}

// Barrier implements Communicator as a zero-width reduction: every rank
// completes the butterfly, hence every rank has entered it.
func (t *TCP) Barrier() { t.mustReduce(opSum, nil) }

// Protect runs fn and converts a *TCPError panic (an unrecoverable
// transport failure inside a reduction or barrier) into an ordinary
// error, so single-rank drivers get the same error-return behaviour
// RunTCP gives its rank goroutines.
func (t *TCP) Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(*TCPError); ok {
				err = te.Err
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// GatherInterior implements Communicator: every rank streams its interior
// block to rank 0 over its persistent connection; rank 0 assembles them
// into dst by partition extent. The trailing barrier keeps consecutive
// gathers from interleaving, exactly as in the Hub.
func (t *TCP) GatherInterior(local *grid.Field2D, dst *grid.Field2D) error {
	return tcpGather(t, 2, local, dst)
}

// GatherInterior3D implements Communicator: GatherInterior for 3D fields.
func (t *TCP) GatherInterior3D(local *grid.Field3D, dst *grid.Field3D) error {
	return tcpGather(t, 3, local, dst)
}

// tcpGather is the TCP backend's one gather.
func tcpGather[F haloField](t *TCP, dims int, local, dst F) error {
	d := t.dec
	lay := local.Layout()
	ext, err := d.gatherSource(dims, t.rank, lay)
	if err != nil {
		return err
	}
	if t.rank != 0 {
		data := appendBox(make([]float64, 0, ext.Cells()), lay, local.DataOrNil(), interior(lay))
		if err := t.send(0, frameGather, 0, data); err != nil {
			return err
		}
		return t.Protect(func() error { t.Barrier(); return nil })
	}
	err = gatherDestination(dst, dims, d.n)
	if err == nil {
		placeInterior(dst.Layout(), dst.DataOrNil(), ext, lay, local.DataOrNil())
	}
	// Drain every peer's block even on error, so the streams stay in sync
	// for the barrier and whatever follows.
	for r := 1; r < t.size; r++ {
		re := d.boxes[r]
		data, rerr := t.recvFloats(r, frameGather, 0, "gather")
		if rerr != nil {
			return rerr
		}
		if len(data) != re.Cells() {
			return fmt.Errorf("comm: tcp rank 0: gather block from rank %d has %d values, want %d", r, len(data), re.Cells())
		}
		if err == nil {
			copyBox(dst.Layout(), dst.DataOrNil(), grid.Bounds3D(re), data)
		}
	}
	if berr := t.Protect(func() error { t.Barrier(); return nil }); berr != nil {
		return berr
	}
	return err
}

// RunTCP launches fn on every rank of the partition, 2D or 3D, each rank
// backed by its own real TCP communicator over loopback listeners — the
// in-process `mpirun` of the TCP backend, and the harness the
// Hub-equivalence tests drive. A *TCPError panic inside fn (a failed
// reduction) is converted to that rank's error; the returned error is
// the first non-nil by rank.
func RunTCP(part *grid.Partition, fn func(c Communicator) error) error {
	n := part.Ranks()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				_ = l.Close()
			}
			return fmt.Errorf("comm: tcp: listen for rank %d: %w", r, err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	defer place.Claim(n - 1)()
	errs := make([]error, n)
	var wg sync.WaitGroup
	cpu, apart := place.Current(), place.NewGroup(n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			place.Spread(cpu, rank) // as Run does
			c, err := newTCP(TCPConfig{
				Rank: rank, Peers: peers, Part: part, Listener: lns[rank],
			}, true)
			if err != nil {
				errs[rank] = err
				return
			}
			c.apart = apart
			defer c.Close()
			errs[rank] = c.Protect(func() error { return fn(c) })
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
