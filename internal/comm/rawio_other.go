//go:build !unix

package comm

import "net"

// rawWriter is the fallback for platforms without a raw non-blocking
// socket write: every attempt writes nothing, so every frame takes the
// queued path through the connection's writer goroutine.
type rawWriter struct{}

func newRawWriter(net.Conn) *rawWriter { return &rawWriter{} }

func (*rawWriter) tryWrite([]byte) (int, error) { return 0, nil }

// rawReader is the fallback for platforms without a raw non-blocking
// socket read: there is none, so a frameReader parks in Read at once.
type rawReader struct{}

func newRawReader(net.Conn) *rawReader { return nil }

func (*rawReader) tryRead([]byte) (int, error) { return 0, nil }
