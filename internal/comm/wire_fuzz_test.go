package comm

import (
	"bytes"
	"io"
	"testing"
)

// Native fuzz targets for the two decoders that read bytes a peer (or a
// stranger on the port) controls. Well-formed seeds are built here from
// the encoders; the malformed, truncated and oversized ones are the
// committed corpus under testdata/fuzz. Plain `go test` runs every seed.

// chunkReader delivers its bytes at most n per Read, the way a socket
// hands over a frame that arrives in pieces.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// FuzzReadFrame: whatever the bytes, the frame reader returns frames or
// an error — it never panics and never holds a buffer larger than the
// input plus one growth step, however much the length prefix claims.
// Every frame it does return is exactly the bytes it was cut from, a
// stream of whole frames ends in a clean io.EOF, and chopping the stream
// into small reads changes nothing.
func FuzzReadFrame(f *testing.F) {
	hello := handshake{rank: 1, size: 4, dims: 2, nx: 256, ny: 256, px: 2, py: 2}.encode(frameHello)
	f.Add(appendFloatFrame(nil, frameExchange, 2, []float64{1, -2.5, 3e300}), uint8(3))
	f.Add(appendFloatFrame(appendFloatFrame(nil, frameReduce, tagReduceFold, []float64{0}), frameBye, 0, nil), uint8(0))
	f.Add(withByte6(appendFloatFrame(nil, frameReduce, tagReduceFold, []float64{0}), 7), uint8(0))
	f.Add(hello, uint8(7))
	f.Add(append(appendFrameHeader(nil, frameReject, 0, 5), "nope!"...), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		type frame struct {
			typ, tag byte
			payload  []byte
		}
		parse := func(r io.Reader) ([]frame, error) {
			fr := frameReader{r: r}
			var frames []frame
			off := 0
			for {
				typ, tag, payload, err := fr.next()
				if len(fr.buf) > len(data)+scratchStepBytes {
					t.Fatalf("receive buffer grew to %d bytes on %d bytes of input", len(fr.buf), len(data))
				}
				if err != nil {
					if err == io.EOF && off != len(data) {
						t.Fatalf("clean EOF with %d of %d bytes consumed", off, len(data))
					}
					return frames, err
				}
				end := off + frameHeaderBytes + len(payload)
				if end > len(data) || !bytes.Equal(payload, data[off+frameHeaderBytes:end]) ||
					typ != data[off+4] || tag != data[off+5] {
					t.Fatalf("frame at offset %d does not match the bytes it was read from", off)
				}
				if data[off+6] != 0 || data[off+7] != 0 {
					t.Fatalf("accepted a %s frame with reserved bytes %d, %d", frameTypeName(typ), data[off+6], data[off+7])
				}
				frames = append(frames, frame{typ, tag, bytes.Clone(payload)})
				off = end
			}
		}
		whole, wholeErr := parse(bytes.NewReader(data))
		pieces, piecesErr := parse(&chunkReader{data: data, n: int(chunk) + 1})
		if len(whole) != len(pieces) || (wholeErr == io.EOF) != (piecesErr == io.EOF) {
			t.Fatalf("read whole: %d frames then %v; read %d bytes at a time: %d frames then %v",
				len(whole), wholeErr, int(chunk)+1, len(pieces), piecesErr)
		}
		for i := range whole {
			if whole[i].typ != pieces[i].typ || !bytes.Equal(whole[i].payload, pieces[i].payload) {
				t.Fatalf("frame %d differs between whole and piecewise reads", i)
			}
		}
	})
}

// FuzzDecodeHandshake: a handshake payload decodes or is refused, never
// panics, and an accepted one re-encodes to the same bytes.
func FuzzDecodeHandshake(f *testing.F) {
	f.Add(handshake{rank: 1, size: 4, dims: 2, nx: 256, ny: 256, px: 2, py: 2}.encode(frameHello)[frameHeaderBytes:])
	f.Add(handshake{rank: 7, size: 8, dims: 3, nx: 64, ny: 32, nz: 16, px: 2, py: 2, pz: 2}.encode(frameWelcome)[frameHeaderBytes:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHandshake(payload)
		if err != nil {
			return
		}
		if again := h.encode(frameHello)[frameHeaderBytes:]; !bytes.Equal(again, payload) {
			t.Fatalf("accepted handshake %+v re-encodes to %x, was %x", h, again, payload)
		}
		_ = h.geometry()
	})
}
