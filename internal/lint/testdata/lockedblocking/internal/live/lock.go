// Package live exercises lockedblocking, in particular the
// interprocedural summaries: the blocking operation sits one or two
// static calls below the lock site and must be reported at the call the
// lock-holding function makes.
package live

import (
	"io"
	"net"
	"net/netip"
	"sync"
)

// S holds a mutex and a command channel.
type S struct {
	mu sync.Mutex
	ch chan int
	w  io.Writer
}

// send performs the actual channel send (blocking, two frames below
// Flush's lock).
func (s *S) send() {
	s.ch <- 1
}

// emit is the intermediate frame.
func (s *S) emit() {
	s.send()
}

// Flush blocks through emit → send while holding the mutex: positive,
// reported here at the emit call (depth 2 below the lock site).
func (s *S) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit() // want:lockedblocking
}

// writeFrame does interface I/O (blocking, one frame down).
func (s *S) writeFrame(b []byte) error {
	_, err := s.w.Write(b)
	return err
}

// Push blocks through writeFrame's io.Writer.Write while holding the
// mutex: positive at the call site.
func (s *S) Push(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeFrame(b) // want:lockedblocking
}

// poll never blocks: the select has a default clause.
func (s *S) poll() {
	select {
	case s.ch <- 1:
	default:
	}
}

// TryEmit calls a non-blocking helper under the lock: negative.
func (s *S) TryEmit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.poll()
}

// EmitUnlocked calls the blocking helper after releasing the mutex:
// negative.
func (s *S) EmitUnlocked() {
	s.mu.Lock()
	n := len(s.ch)
	s.mu.Unlock()
	if n == 0 {
		s.emit()
	}
}

// DirectSend is the intraprocedural base case: positive.
func (s *S) DirectSend() {
	s.mu.Lock()
	s.ch <- 2 // want:lockedblocking
	s.mu.Unlock()
}

// Fabric sends datagrams through one socket.
type Fabric struct {
	mu   sync.Mutex
	conn *net.UDPConn
}

// Send holds the mutex across the netip form of a UDP write: positive,
// as for WriteToUDP.
func (f *Fabric) Send(b []byte, to netip.AddrPort) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.conn.WriteToUDPAddrPort(b, to) // want:lockedblocking
	return err
}
