//go:build unix

package comm

import (
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
