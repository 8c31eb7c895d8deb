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

// sender hands a forwarder's staged frames to the kernel, every frame of
// a flush in one sendmmsg. A run of frames for one endpoint goes as one
// message carrying a UDP_SEGMENT control message (UDP GSO): the kernel
// walks its send path once for the message and cuts it into one datagram
// per frame, so a receiver still reads one datagram per frame.
type sender struct {
	raw syscall.RawConn
	// send is s.sendmmsg, bound once (see reader.recv).
	send func(fd uintptr) bool
	// n messages are built and next is the first the call has not tried.
	n, next int
	// noGSO is set for good once the kernel would not segment a message:
	// from then on every frame is a message of its own.
	noGSO bool
	msgs  [batchSlots]mmsghdr
	iovs  [batchSlots]syscall.Iovec
	addrs [batchSlots]syscall.RawSockaddrInet4
	// gso are the control messages: a batch has at most half as many
	// messages of two frames or more as it has frames.
	gso [batchSlots / 2]gsoCmsg
}

// udpSegment is UDP_SEGMENT, a SOL_UDP control message (Linux 4.18) whose
// data is the segment size; package syscall does not name it.
const udpSegment = 103

// gsoCmsg is one UDP_SEGMENT control message. Its size is
// CMSG_SPACE(2) on both word sizes: the header is 16 bytes on 64-bit
// Linux and 12 on 32-bit, and the struct pads to its alignment.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
}

func (s *sender) init(_ *net.UDPConn, raw syscall.RawConn) {
	s.raw = raw
	for i := range s.msgs {
		s.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.addrs[i]))
		s.msgs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
	}
	for i := range s.gso {
		s.gso[i].hdr.Level = syscall.IPPROTO_UDP // SOL_UDP
		s.gso[i].hdr.Type = udpSegment
		s.gso[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	s.send = s.sendmmsg
}

// write sends frames[i] to eps[i] for every i. It returns how many frames
// the socket refused, how many messages the kernel took, and whether the
// kernel would not segment in this call, which turns GSO off for the
// sender.
func (s *sender) write(frames [][]byte, eps []netip.AddrPort) (refused, messages int, fellBack bool) {
	var msgOf [batchSlots]uint8 // frame i rides in message msgOf[i]
	gso := !s.noGSO
	s.n, s.next = s.build(frames, eps, &msgOf), 0
	// An error means the socket is closed: the messages not sent keep
	// their zero byte count and are counted as refused below.
	_ = s.raw.Write(s.send)
	fellBack = gso && s.noGSO
	tried := s.n
	if fellBack {
		tried = s.next // the refused message and those behind it go again
	}
	for k := range tried {
		if s.msgs[k].len > 0 { // the kernel reports the bytes of a message it took
			messages++
		} else {
			refused += int(s.msgs[k].hdr.Iovlen)
		}
	}
	if !fellBack {
		return refused, messages, false
	}
	var (
		rest [batchSlots][]byte
		to   [batchSlots]netip.AddrPort
	)
	j := 0
	for i, b := range frames {
		if int(msgOf[i]) >= s.next {
			rest[j], to[j] = b, eps[i]
			j++
		}
	}
	r, m, _ := s.write(rest[:j], to[:j]) // in staged order, a datagram each
	return refused + r, messages + m, true
}

// build lays the frames out as messages and returns how many there are.
// A frame joins the latest message for its endpoint if its length is the
// message's segment size, or is shorter and so ends the message (the
// kernel cuts every segment but the last to that size). Any other frame
// starts a message. So each endpoint's frames leave in staged order;
// frames for different endpoints may not. Without GSO every frame is a
// message, and a message of one frame carries no control message.
func (s *sender) build(frames [][]byte, eps []netip.AddrPort, msgOf *[batchSlots]uint8) int {
	var (
		count, size [batchSlots]int  // message k's frames and segment size
		ended       [batchSlots]bool // message k took a short last segment
	)
	n := 0
	for i, b := range frames {
		sa := sockaddr(eps[i])
		k := n - 1
		for !s.noGSO && k >= 0 && s.addrs[k] != sa {
			k--
		}
		if s.noGSO || k < 0 || ended[k] || len(b) > size[k] {
			k, n = n, n+1
			s.addrs[k], size[k] = sa, len(b)
		} else if len(b) < size[k] {
			ended[k] = true
		}
		msgOf[i] = uint8(k)
		count[k]++
	}
	var next [batchSlots]int // the iovec message k fills next
	for k, off, c := 0, 0, 0; k < n; k++ {
		next[k] = off
		m := &s.msgs[k]
		m.len = 0
		m.hdr.Iov = &s.iovs[off]
		setIovlen(&m.hdr.Iovlen, count[k])
		if count[k] > 1 {
			s.gso[c].size = uint16(size[k])
			m.hdr.Control = (*byte)(unsafe.Pointer(&s.gso[c]))
			m.hdr.SetControllen(int(unsafe.Sizeof(s.gso[c])))
			c++
		} else {
			m.hdr.Control = nil
			m.hdr.SetControllen(0)
		}
		off += count[k]
	}
	for i, b := range frames {
		iov := &s.iovs[next[msgOf[i]]]
		next[msgOf[i]]++
		iov.Base = &b[0]
		iov.SetLen(len(b))
	}
	return n
}

// sockaddr is ep as the kernel's sockaddr_in.
func sockaddr(ep netip.AddrPort) syscall.RawSockaddrInet4 {
	sa := syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ep.Addr().As4()}
	port := (*[2]byte)(unsafe.Pointer(&sa.Port)) // network byte order
	port[0], port[1] = byte(ep.Port()>>8), byte(ep.Port())
	return sa
}

// setIovlen sets a message's iovec count, a uint64 on 64-bit Linux and a
// uint32 on 32-bit.
func setIovlen[T uint32 | uint64](p *T, n int) { *p = T(n) }

// sendmmsg is the RawConn callback. A partial send resumes after the
// messages the kernel took. A message it refuses outright is skipped,
// and the messages behind it still go; but EINVAL, EIO or ENOPROTOOPT on
// a segmented message means the socket or its route cannot segment: the
// call stops there and GSO goes off (write sends the rest again).
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
		case syscall.EINVAL, syscall.EIO, syscall.ENOPROTOOPT:
			if s.msgs[s.next].hdr.Control != nil {
				s.noGSO = true
				return true
			}
			s.next++
		default:
			s.next++
		}
	}
	return true
}
