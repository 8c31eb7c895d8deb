package live

import (
	"net"
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

// batchSlots is how many datagrams one recvmmsg fills and one sendmmsg
// carries.
const batchSlots = 16

// mmsghdr is the kernel's struct mmsghdr: one message header and the
// byte count the call reports for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// reader receives a socket's datagrams batchSlots at a time with recvmmsg,
// into an arena of maxFrame-byte slots it owns. The call goes through the
// socket's RawConn, so a read waits on the netpoller and honours the read
// deadline like any read of the net package.
type reader struct {
	raw syscall.RawConn
	// recv is r.recvmmsg, bound once: a method value made per read would
	// allocate.
	recv  func(fd uintptr) bool
	n     int
	errno syscall.Errno
	msgs  [batchSlots]mmsghdr
	iovs  [batchSlots]syscall.Iovec
	// arena is an allocation of its own: at exactly 32 KiB it fits the
	// heap's largest size class, where sharing one with the headers would
	// round the whole up to 40 KiB.
	arena *[batchSlots][maxFrame]byte
}

func newReader(_ *net.UDPConn, raw syscall.RawConn) *reader {
	r := &reader{raw: raw, arena: new([batchSlots][maxFrame]byte)}
	for i := range r.msgs {
		r.iovs[i].Base = &r.arena[i][0]
		r.iovs[i].SetLen(maxFrame)
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1
	}
	r.recv = r.recvmmsg
	return r
}

// read blocks until at least one datagram has arrived and returns how
// many it took; frame(i) is the i-th.
func (r *reader) read() (int, error) {
	r.n, r.errno = 0, 0
	if err := r.raw.Read(r.recv); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", r.errno)
	}
	return r.n, nil
}

// recvmmsg is the RawConn callback: false sends the caller back to the
// netpoller to wait for the socket to become readable.
func (r *reader) recvmmsg(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.msgs[0])), batchSlots, 0, 0, 0)
		switch errno {
		case 0:
			r.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = errno
			return true
		}
	}
}

// frame returns datagram i of the last read, and false when the datagram
// was longer than maxFrame: the kernel cut it to the slot, so its bytes
// are not the frame that was sent.
func (r *reader) frame(i int) ([]byte, bool) {
	m := &r.msgs[i]
	return r.arena[i][:m.len], m.hdr.Flags&syscall.MSG_TRUNC == 0
}

// sender hands a forwarder's staged frames to the kernel with sendmmsg.
type sender struct {
	raw syscall.RawConn
	// send is s.sendmmsg, bound once (see reader.recv).
	send             func(fd uintptr) bool
	n, next, refused int
	msgs             [batchSlots]mmsghdr
	iovs             [batchSlots]syscall.Iovec
	addrs            [batchSlots]syscall.RawSockaddrInet4
}

func (s *sender) init(_ *net.UDPConn, raw syscall.RawConn) {
	s.raw = raw
	for i := range s.msgs {
		s.addrs[i].Family = syscall.AF_INET
		s.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.addrs[i]))
		s.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
		s.msgs[i].hdr.Iov = &s.iovs[i]
		s.msgs[i].hdr.Iovlen = 1
	}
	s.send = s.sendmmsg
}

// write sends frames[i] to eps[i] for every i and returns how many frames
// the socket refused.
func (s *sender) write(frames [][]byte, eps []netip.AddrPort) int {
	for i, b := range frames {
		port := (*[2]byte)(unsafe.Pointer(&s.addrs[i].Port)) // network byte order
		port[0], port[1] = byte(eps[i].Port()>>8), byte(eps[i].Port())
		s.addrs[i].Addr = eps[i].Addr().As4()
		s.iovs[i].Base = &b[0]
		s.iovs[i].SetLen(len(b))
	}
	s.n, s.next, s.refused = len(frames), 0, 0
	if err := s.raw.Write(s.send); err != nil {
		s.refused += s.n - s.next // the socket is closed: the rest never left
	}
	return s.refused
}

// sendmmsg is the RawConn callback. A partial send resumes after the
// frames the kernel took; a frame it refuses outright is skipped and
// counted, and the frames behind it still go.
func (s *sender) sendmmsg(fd uintptr) bool {
	for s.next < s.n {
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.msgs[s.next])), uintptr(s.n-s.next), 0, 0, 0)
		switch errno {
		case 0:
			s.next += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false // the send buffer is full: wait until it drains
		default:
			s.refused++
			s.next++
		}
	}
	return true
}
