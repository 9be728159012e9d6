//go:build unix

package comm

import (
	"io"
	"net"
	"os"
	"syscall"
)

// rawWriter makes single non-blocking write attempts on a connection's
// descriptor. Go's net package keeps every socket in non-blocking mode
// and parks a goroutine whose Write would block; going through
// syscall.RawConn with a callback that tries once and reports "done"
// gets the write without the parking, so the caller learns how much the
// kernel took and is never held up by the peer. The callback is built
// once and passes its operands through fields, so an attempt allocates
// nothing.
type rawWriter struct {
	rc  syscall.RawConn // nil: no raw access, every attempt writes nothing
	fn  func(fd uintptr) bool
	buf []byte
	n   int
	err error
}

func newRawWriter(nc net.Conn) *rawWriter {
	w := &rawWriter{}
	w.fn = w.attempt
	if sc, ok := nc.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			w.rc = rc
		}
	}
	return w
}

func (w *rawWriter) attempt(fd uintptr) bool {
	for {
		w.n, w.err = syscall.Write(int(fd), w.buf)
		if w.err != syscall.EINTR {
			return true // written, full (EAGAIN) or failed: never wait for writability
		}
	}
}

// tryWrite writes as much of buf as the socket accepts right now and
// returns that count, which is zero when the send buffer is full. Only a
// real transport failure is an error.
func (w *rawWriter) tryWrite(buf []byte) (int, error) {
	if w.rc == nil {
		return 0, nil
	}
	w.buf, w.n, w.err = buf, 0, nil
	err := w.rc.Write(w.fn)
	w.buf = nil
	if err == nil && w.err != nil && w.err != syscall.EAGAIN {
		err = os.NewSyscallError("write", w.err)
	}
	return max(w.n, 0), err // a failed write(2) reports -1
}

// rawReader is rawWriter's read-side twin: single non-blocking read
// attempts, which let frameReader spin on a socket before the parking
// Read (see place.Spin).
type rawReader struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	buf []byte
	n   int
	err error
}

// newRawReader returns nil when the connection gives no raw access.
func newRawReader(nc net.Conn) *rawReader {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rawReader{rc: rc}
	r.fn = r.attempt
	return r
}

func (r *rawReader) attempt(fd uintptr) bool {
	for {
		r.n, r.err = syscall.Read(int(fd), r.buf)
		if r.err != syscall.EINTR {
			return true // read, empty (EAGAIN), ended or failed: never wait for readability
		}
	}
}

// tryRead reads what the socket holds right now into buf, which must not
// be empty: n > 0 bytes, io.EOF at the end of the stream, (0, nil) when
// nothing has arrived, or the error of a failed read.
func (r *rawReader) tryRead(buf []byte) (int, error) {
	r.buf, r.n, r.err = buf, 0, nil
	err := r.rc.Read(r.fn)
	r.buf = nil
	switch {
	case err != nil:
		return 0, err
	case r.err == syscall.EAGAIN:
		return 0, nil
	case r.err != nil:
		return 0, os.NewSyscallError("read", r.err)
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}
