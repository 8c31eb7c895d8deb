//go:build !linux

package live

import (
	"net"
	"net/netip"
	"syscall"
)

// batchSlots is 1 where the kernel has no recvmmsg/sendmmsg: the loops
// are the Linux ones, one datagram per call.
const batchSlots = 1

// reader receives one datagram per read into a buffer one byte longer
// than maxFrame, so a frame that fits is told from one that was cut.
type reader struct {
	conn *net.UDPConn
	n    int
	cut  bool
	buf  [maxFrame + 1]byte
}

func newReader(conn *net.UDPConn, _ syscall.RawConn) *reader { return &reader{conn: conn} }

func (r *reader) read() (int, error) {
	n, _, err := r.conn.ReadFromUDPAddrPort(r.buf[:])
	if err != nil && n == 0 {
		return 0, err
	}
	// Windows reports a datagram longer than the buffer as an error,
	// with the bytes that fitted.
	r.n, r.cut = min(n, maxFrame), err != nil || n > maxFrame
	return 1, nil
}

func (r *reader) frame(int) ([]byte, bool) { return r.buf[:r.n], !r.cut }

// sender writes a forwarder's staged frames one datagram at a time.
type sender struct{ conn *net.UDPConn }

func (s *sender) init(conn *net.UDPConn, _ syscall.RawConn) { s.conn = conn }

func (s *sender) write(frames [][]byte, eps []netip.AddrPort) (refused, messages int, fellBack bool) {
	for i, b := range frames {
		if _, err := s.conn.WriteToUDPAddrPort(b, eps[i]); err != nil {
			refused++
		}
	}
	return refused, len(frames) - refused, false
}
