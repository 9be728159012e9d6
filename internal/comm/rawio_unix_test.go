//go:build unix

package comm

import (
	"io"
	"net"
	"testing"
	"time"
)

// A raw read attempt never waits: it reports nothing while nothing has
// arrived, the bytes once they have, and io.EOF once the peer has closed.
func TestRawReaderNeverWaits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := newRawReader(nc)
	if r == nil {
		t.Fatal("no raw reader on a TCP connection")
	}
	buf := make([]byte, 16)
	if n, err := r.tryRead(buf); n != 0 || err != nil {
		t.Fatalf("empty socket: tryRead = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := peer.Write([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for deadline := time.Now().Add(5 * time.Second); len(got) < 5 && time.Now().Before(deadline); {
		n, err := r.tryRead(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "frame" {
		t.Fatalf("tryRead got %q, want %q", got, "frame")
	}
	peer.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		n, err := r.tryRead(buf)
		if err == io.EOF && n == 0 {
			break
		}
		if n != 0 || err != nil || time.Now().After(deadline) {
			t.Fatalf("after the peer closed: tryRead = (%d, %v), want (0, io.EOF)", n, err)
		}
	}
	nc.Close()
	if _, err := r.tryRead(buf); err == nil {
		t.Error("tryRead on a closed connection reported no error")
	}
}
