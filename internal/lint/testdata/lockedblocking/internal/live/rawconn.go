package live

import (
	"sync"
	"syscall"
)

// Batch reads and writes datagrams through a socket's RawConn, as a
// recvmmsg/sendmmsg path does.
type Batch struct {
	mu     sync.Mutex
	raw    syscall.RawConn
	io     func(fd uintptr) bool
	staged int
}

// Flush holds the mutex across a RawConn write, which waits on the
// netpoller until the socket takes the batch: positive.
func (b *Batch) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.raw.Write(b.io) // want:lockedblocking
}

// fill reads one batch (blocking, one frame down).
func (b *Batch) fill() error { return b.raw.Read(b.io) }

// Fill blocks through fill's RawConn.Read while holding the mutex:
// positive at the call site.
func (b *Batch) Fill() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fill() // want:lockedblocking
}

// Tune runs a callback on the descriptor without waiting for it to be
// ready: negative.
func (b *Batch) Tune(fn func(fd uintptr)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.raw.Control(fn)
}

// FlushUnlocked reads the staged count under the mutex and writes after
// releasing it: negative.
func (b *Batch) FlushUnlocked() error {
	b.mu.Lock()
	n := b.staged
	b.mu.Unlock()
	if n == 0 {
		return nil
	}
	return b.raw.Write(b.io)
}
