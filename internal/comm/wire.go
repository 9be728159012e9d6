package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"tealeaf/internal/place"
)

// The TCP backend's length-prefixed binary wire protocol. Every message
// on a peer connection is one frame:
//
//	offset  size  field
//	0       4     payload length in bytes (little-endian uint32)
//	4       1     frame type (frameHello .. frameBye)
//	5       1     tag (meaning depends on the type; see below)
//	6       1     reduction instance (frameReduce only; must be zero on
//	              every other type — it distinguishes concurrently
//	              in-flight tagged reduction rounds)
//	7       1     reserved, must be zero
//	8       n     payload (float64 values, little-endian bit patterns,
//	              except handshake frames, which carry the fields below)
//
// Frame types and their tags:
//
//   - frameHello / frameWelcome: the connection handshake. The dialing
//     (lower) rank sends Hello, the accepting (higher) rank answers
//     Welcome or Reject. The payload is the handshake block: an 8-byte
//     magic, a protocol version, the sender's rank, the rank count, and
//     the partition geometry (dims, NX, NY, NZ, PX, PY, PZ; z entries
//     zero for 2D). Both sides verify the peer's geometry matches their
//     own exactly — a mismatched handshake fails fast with a descriptive
//     error instead of corrupting a solve. Tag is zero.
//   - frameReject: the accept side's handshake refusal; the payload is a
//     human-readable reason (UTF-8).
//   - frameExchange: one packed halo slab. The tag is the grid.Side of
//     the *receiving* rank at which the slab applies (the same convention
//     as the Hub's mailbox index), so a desynchronised exchange is caught
//     as a tag mismatch, not silent corruption.
//   - frameReduce: one recursive-doubling reduction step. The tag is the
//     round code (tagReduceFold / round index / tagReduceResult), so two
//     ranks disagreeing about the reduction schedule fail loudly. The
//     instance byte carries the caller-level reduction tag
//     (AllReduceSumNStartTagged), so steps of distinct in-flight rounds
//     never match each other even when their round codes collide.
//   - frameGather: one rank's interior block travelling to rank 0.
//   - frameBye: graceful shutdown notice sent by Close. A Bye arriving
//     where data was expected reports "peer shut down" instead of a bare
//     EOF.
const (
	frameHello byte = iota + 1
	frameWelcome
	frameReject
	frameExchange
	frameReduce
	frameGather
	frameBye
)

// Reduction round tags. Rounds of the recursive-doubling butterfly use
// the mask's bit index (0..62); the non-power-of-two fold-in and its
// result redistribution use the reserved codes.
const (
	tagReduceFold   byte = 0xF0
	tagReduceResult byte = 0xF1
)

// wireMagic opens every handshake payload; it rejects strangers (port
// scanners, misdirected HTTP) before any geometry parsing.
var wireMagic = [8]byte{'T', 'E', 'A', 'L', 'T', 'C', 'P', '1'}

// wireVersion is bumped on any incompatible frame-format change.
const wireVersion uint16 = 1

// maxFrameBytes caps a frame's payload so a corrupt or hostile length
// prefix cannot trigger a multi-gigabyte allocation.
const maxFrameBytes = 1 << 30

const frameHeaderBytes = 8

func frameTypeName(t byte) string {
	switch t {
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	case frameReject:
		return "reject"
	case frameExchange:
		return "exchange"
	case frameReduce:
		return "reduce"
	case frameGather:
		return "gather"
	case frameBye:
		return "bye"
	}
	return fmt.Sprintf("type(%d)", t)
}

// appendFrameHeader appends the 8-byte frame header for a payload of n
// bytes. inst is the reduction-instance byte and must be zero for every
// type but frameReduce.
func appendFrameHeader(buf []byte, typ, tag, inst byte, n int) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = typ
	hdr[5] = tag
	hdr[6] = inst
	return append(buf, hdr[:]...)
}

// appendFloatFrame appends a complete frame whose payload is vals to buf.
func appendFloatFrame(buf []byte, typ, tag, inst byte, vals []float64) []byte {
	buf = appendFrameHeader(slices.Grow(buf, frameHeaderBytes+8*len(vals)), typ, tag, inst, 8*len(vals))
	off := len(buf)
	buf = buf[:off+8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
	}
	return buf
}

// decodeFloats interprets a frame payload as packed float64s, decoding
// into dst's backing array when it is large enough.
func decodeFloats(dst []float64, payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("payload length %d is not a multiple of 8", len(payload))
	}
	n := len(payload) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return dst, nil
}

const (
	// recvBufBytes is a frameReader's starting buffer: large enough that a
	// solve's reduce and halo frames, header and payload, arrive in one
	// read (and several queued frames often do).
	recvBufBytes = 64 << 10
	// scratchStepBytes bounds how far a receive buffer may grow ahead of
	// the bytes that have actually arrived, and is the largest per-
	// connection scratch buffer kept between frames: a buffer an outsized
	// frame grew past it is released once that frame has been consumed.
	scratchStepBytes = 1 << 20
)

// frameReader reads frames through one reusable buffer. A read asks for
// everything the socket holds, so a frame normally costs one read and
// trailing frames that arrived with it cost none. The length prefix is
// never trusted with memory: the buffer grows by at most
// scratchStepBytes beyond the bytes received so far, so a corrupt or
// hostile prefix costs one step, not the 1 GiB it may claim.
type frameReader struct {
	r      io.Reader
	raw    *rawReader // set: spin on non-blocking reads before r.Read parks
	buf    []byte     // buf[rd:wr] is received and not yet consumed
	rd, wr int
}

// next returns the next complete frame. The payload aliases the reader's
// buffer and is valid only until the following call.
func (fr *frameReader) next() (typ, tag, inst byte, payload []byte, err error) {
	if unread := fr.wr - fr.rd; len(fr.buf) > scratchStepBytes && unread <= scratchStepBytes {
		// An outsized frame grew the buffer; keep only what is still unread.
		kept := make([]byte, max(recvBufBytes, unread))
		fr.wr = copy(kept, fr.buf[fr.rd:fr.wr])
		fr.rd, fr.buf = 0, kept
	}
	if fr.rd == fr.wr {
		fr.rd, fr.wr = 0, 0
	}
	if err := fr.fill(frameHeaderBytes); err != nil {
		return 0, 0, 0, nil, err
	}
	hdr := fr.buf[fr.rd : fr.rd+frameHeaderBytes]
	n := binary.LittleEndian.Uint32(hdr[0:4])
	typ, tag, inst = hdr[4], hdr[5], hdr[6]
	if n > maxFrameBytes {
		return 0, 0, 0, nil, fmt.Errorf("frame payload of %d bytes exceeds the %d-byte cap (corrupt stream?)", n, maxFrameBytes)
	}
	if inst != 0 && typ != frameReduce {
		return 0, 0, 0, nil, fmt.Errorf("non-zero reduction-instance byte on a %s frame (corrupt stream?)", frameTypeName(typ))
	}
	if hdr[7] != 0 {
		return 0, 0, 0, nil, fmt.Errorf("non-zero reserved byte in frame header (corrupt stream?)")
	}
	size := frameHeaderBytes + int(n)
	if err := fr.fill(size); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("reading %d-byte payload: %w", n, err)
	}
	payload = fr.buf[fr.rd+frameHeaderBytes : fr.rd+size]
	fr.rd += size
	return typ, tag, inst, payload, nil
}

// fill reads until at least need unconsumed bytes are buffered. It
// returns io.EOF only when the stream ended with nothing buffered, and
// io.ErrUnexpectedEOF when it ended part-way.
func (fr *frameReader) fill(need int) error {
	if fr.rd > 0 && len(fr.buf)-fr.rd < need {
		// The frame would run off the end: move what has arrived to the front.
		fr.wr = copy(fr.buf, fr.buf[fr.rd:fr.wr])
		fr.rd = 0
	}
	for fr.wr-fr.rd < need {
		if fr.wr == len(fr.buf) {
			// Full, hence compacted above (rd == 0) and still short of need.
			grown := make([]byte, max(recvBufBytes, min(need, fr.wr+scratchStepBytes)))
			copy(grown, fr.buf[:fr.wr])
			fr.buf = grown
		}
		n, err := fr.read(fr.buf[fr.wr:])
		fr.wr += n
		if err != nil && fr.wr-fr.rd < need {
			if err == io.EOF && fr.wr > fr.rd {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// read reads what has arrived into p, which is not empty: through the raw
// reader's non-blocking attempts while they get something within the spin
// window, then through r.Read, which parks until something arrives.
func (fr *frameReader) read(p []byte) (n int, err error) {
	if fr.raw != nil && place.Spin(func() bool {
		n, err = fr.raw.tryRead(p)
		return n > 0 || err != nil
	}) {
		return n, err
	}
	return fr.r.Read(p)
}

// handshake is the decoded payload of a Hello/Welcome frame.
type handshake struct {
	rank, size             int
	dims                   int
	nx, ny, nz, px, py, pz int
}

// handshakeFor captures this communicator's identity and geometry.
func (t *TCP) handshakeFor() handshake {
	h := handshake{rank: t.rank, size: t.size}
	if t.part3 != nil {
		h.dims = 3
		h.nx, h.ny, h.nz = t.part3.NX, t.part3.NY, t.part3.NZ
		h.px, h.py, h.pz = t.part3.PX, t.part3.PY, t.part3.PZ
	} else {
		h.dims = 2
		h.nx, h.ny = t.part.NX, t.part.NY
		h.px, h.py = t.part.PX, t.part.PY
	}
	return h
}

func (h handshake) geometry() string {
	if h.dims == 3 {
		return fmt.Sprintf("%dD %dx%dx%d cells over %dx%dx%d ranks", h.dims, h.nx, h.ny, h.nz, h.px, h.py, h.pz)
	}
	return fmt.Sprintf("%dD %dx%d cells over %dx%d ranks", h.dims, h.nx, h.ny, h.px, h.py)
}

// encode serialises the handshake block (magic, version, rank, size,
// dims, NX, NY, NZ, PX, PY, PZ as uint32s).
func (h handshake) encode(typ byte) []byte {
	payload := make([]byte, 0, 8+2+9*4)
	payload = append(payload, wireMagic[:]...)
	payload = binary.LittleEndian.AppendUint16(payload, wireVersion)
	for _, v := range []int{h.rank, h.size, h.dims, h.nx, h.ny, h.nz, h.px, h.py, h.pz} {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	}
	buf := make([]byte, 0, frameHeaderBytes+len(payload))
	buf = appendFrameHeader(buf, typ, 0, 0, len(payload))
	return append(buf, payload...)
}

func decodeHandshake(payload []byte) (handshake, error) {
	const want = 8 + 2 + 9*4
	if len(payload) != want {
		return handshake{}, fmt.Errorf("handshake payload is %d bytes, want %d", len(payload), want)
	}
	if [8]byte(payload[:8]) != wireMagic {
		return handshake{}, fmt.Errorf("bad magic %q (not a tealeaf TCP peer?)", payload[:8])
	}
	if v := binary.LittleEndian.Uint16(payload[8:10]); v != wireVersion {
		return handshake{}, fmt.Errorf("wire protocol version %d, want %d", v, wireVersion)
	}
	var h handshake
	fields := []*int{&h.rank, &h.size, &h.dims, &h.nx, &h.ny, &h.nz, &h.px, &h.py, &h.pz}
	for i, p := range fields {
		*p = int(binary.LittleEndian.Uint32(payload[10+4*i:]))
	}
	return h, nil
}

// checkGeometry verifies a peer's handshake against our own: same rank
// count and the exact same partition. Solvers assume every rank agrees on
// the decomposition; letting a mismatch through would mean silently wrong
// halos, so it is a handshake-time hard error.
func (t *TCP) checkGeometry(peer handshake) error {
	own := t.handshakeFor()
	if peer.size != own.size {
		return fmt.Errorf("rank-count mismatch: peer rank %d runs with %d ranks, we run with %d", peer.rank, peer.size, own.size)
	}
	if peer.rank < 0 || peer.rank >= own.size {
		return fmt.Errorf("peer rank %d outside [0,%d)", peer.rank, own.size)
	}
	if peer.rank == own.rank {
		return fmt.Errorf("peer claims our own rank %d (duplicate -rank on one peer list?)", own.rank)
	}
	if peer.dims != own.dims || peer.nx != own.nx || peer.ny != own.ny || peer.nz != own.nz ||
		peer.px != own.px || peer.py != own.py || peer.pz != own.pz {
		return fmt.Errorf("partition mismatch: peer rank %d has %s, we have %s", peer.rank, peer.geometry(), own.geometry())
	}
	return nil
}
