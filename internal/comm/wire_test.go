package comm

import (
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// roomReader is a chunkReader that records the most room any Read was
// offered: how far the frame reader's buffer ran ahead of the bytes that
// had actually arrived.
type roomReader struct {
	chunkReader
	maxRoom int
}

func (r *roomReader) Read(p []byte) (int, error) {
	r.maxRoom = max(r.maxRoom, len(p))
	return r.chunkReader.Read(p)
}

// withByte6 sets the header byte of frame that wire version 1 used for a
// reduction-instance number and version 2 reserves.
func withByte6(frame []byte, v byte) []byte {
	frame[6] = v
	return frame
}

// TestFrameReaderRejectsByte6: a frame whose header byte 6 is set is
// refused, on reduce frames (where version 1 put the instance) and on
// every other type.
func TestFrameReaderRejectsByte6(t *testing.T) {
	for _, typ := range []byte{frameReduce, frameExchange, frameGather, frameBye} {
		frame := withByte6(appendFloatFrame(nil, typ, 0, []float64{1.5}), 7)
		fr := frameReader{r: &chunkReader{data: frame, n: len(frame)}}
		if _, _, _, err := fr.next(); err == nil || !strings.Contains(err.Error(), "reserved byte") {
			t.Errorf("%s frame with byte 6 set: %v, want a reserved-byte error", frameTypeName(typ), err)
		}
	}
}

// TestDecodeHandshakeRejectsVersion1: a version 1 peer, which may set
// header byte 6 on its reduce frames, is refused at the handshake with
// both versions named.
func TestDecodeHandshakeRejectsVersion1(t *testing.T) {
	payload := handshake{rank: 1, size: 2, dims: 2, nx: 8, ny: 8, px: 2, py: 1}.encode(frameHello)[frameHeaderBytes:]
	if _, err := decodeHandshake(payload); err != nil {
		t.Fatalf("version %d handshake: %v", wireVersion, err)
	}
	binary.LittleEndian.PutUint16(payload[8:10], 1)
	if _, err := decodeHandshake(payload); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Errorf("version 1 handshake: %v, want a version error", err)
	}
}

// TestFrameReaderBoundedGrowth: an outsized frame grows the receive
// buffer one step at a time as its bytes arrive, is returned intact, and
// the buffer is given back once the frame has been consumed; a length
// prefix with no bytes behind it costs one step, not what it claims.
func TestFrameReaderBoundedGrowth(t *testing.T) {
	big := bitPattern(3<<20/8, 7) // a 3 MiB payload
	stream := appendFloatFrame(nil, frameReduce, 0, []float64{1, 2, 3})
	stream = appendFloatFrame(stream, frameGather, 0, big)
	stream = appendFloatFrame(stream, frameExchange, 2, []float64{4, 5})

	r := &roomReader{chunkReader: chunkReader{data: stream, n: 100 << 10}}
	fr := frameReader{r: r}
	for i, want := range [][]float64{{1, 2, 3}, big, {4, 5}} {
		_, _, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeFloats(nil, payload)
		if err != nil || !sameBits(got, want) {
			t.Fatalf("frame %d: payload corrupted (decode error %v)", i, err)
		}
	}
	if _, _, _, err := fr.next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	if r.maxRoom > scratchStepBytes {
		t.Errorf("a read was offered %d bytes of room, more than one %d-byte step ahead of the bytes received", r.maxRoom, scratchStepBytes)
	}
	if len(fr.buf) > scratchStepBytes {
		t.Errorf("receive buffer is still %d bytes after the outsized frame was consumed", len(fr.buf))
	}

	claim := appendFrameHeader(nil, frameGather, 0, maxFrameBytes)
	claim = append(claim, make([]byte, 100<<10)...)
	fr = frameReader{r: &chunkReader{data: claim, n: len(claim)}}
	if _, _, _, err := fr.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("1 GiB claim with 100 KiB behind it: %v, want an unexpected-EOF error", err)
	}
	if len(fr.buf) > len(claim)+scratchStepBytes {
		t.Errorf("1 GiB claim with 100 KiB behind it grew the buffer to %d bytes", len(fr.buf))
	}
}
