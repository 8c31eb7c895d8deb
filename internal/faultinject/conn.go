package faultinject

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// Conn wraps a management-channel connection and injects faults at frame
// granularity. The mgmt wire protocol is length-prefixed (4-byte
// big-endian size, then the payload), and writers may split one message
// across several Write calls; Conn reassembles complete frames before
// deciding their fate, so a dropped message never leaves a torn prefix
// in the stream — the peer only ever sees whole frames or silence.
//
// Faults available: DropNow (kill the connection mid-stream), counted
// frame loss (lost acks or measurement reports), and AfterFrames (a fault
// that fires at an exact point of the conversation, e.g. between a
// prepare ack and the commit).
type Conn struct {
	inner net.Conn

	mu         sync.Mutex
	buf        []byte
	dropFrames int64
	// afterN / after: run after once afterN more frames reached the socket.
	afterN int64
	after  func(*Conn)
	// dropped counts the frames DropFrames consumed, for assertions.
	dropped int64
}

var _ net.Conn = (*Conn)(nil)

// WrapConn wraps an established connection.
func WrapConn(inner net.Conn) *Conn { return &Conn{inner: inner} }

// DropFrames discards the next n complete frames written through the
// connection.
func (c *Conn) DropFrames(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.dropFrames = n
}

// AfterFrames arms a one-shot fault: once n more frames have been written
// to the socket, fn runs on the writer's goroutine, before the write
// returns. The peer reads those n frames before it can see fn's effect
// (TCP delivers data ahead of a close), so a fault can be placed at an
// exact point of the conversation instead of being raced against it:
// AfterFrames(1, (*Conn).DropNow) on an agent kills its connection right
// after its next ack.
func (c *Conn) AfterFrames(n int64, fn func(*Conn)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.afterN, c.after = n, fn
}

// DropNow severs the connection mid-stream: both directions fail from
// here on, as if the peer's kernel reset the socket.
func (c *Conn) DropNow() { _ = c.inner.Close() }

// Dropped reports how many frames DropFrames has consumed.
func (c *Conn) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Write buffers bytes until complete frames are available, then forwards
// or drops each whole frame per the current directives. It reports the
// full input length as written even for dropped frames — from the
// writer's perspective the fault is invisible, exactly like real loss.
func (c *Conn) Write(p []byte) (int, error) {
	// Decide each complete frame's fate under the lock, but hit the
	// socket outside it, so a blocked write stalls no directive call
	// (DropFrames, Dropped) behind it. Callers already serialize writes
	// per connection (the wire protocol's framing demands it), so
	// releasing the lock between extraction and the socket write cannot
	// reorder frames.
	var forward [][]byte
	var fault func(*Conn) // the AfterFrames fault, due after forward[faultAt]
	faultAt := -1
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	for {
		if len(c.buf) < 4 {
			break
		}
		frameLen := int(binary.BigEndian.Uint32(c.buf[:4]))
		total := 4 + frameLen
		if len(c.buf) < total {
			break
		}
		frame := c.buf[:total:total]
		c.buf = c.buf[total:]
		if c.dropFrames > 0 {
			c.dropFrames--
			c.dropped++
			continue
		}
		forward = append(forward, frame)
		// Counted here, under the lock AfterFrames arms under: a frame
		// whose Write was already past this point when the fault was
		// armed is not one of the n.
		if c.after != nil {
			if c.afterN--; c.afterN <= 0 {
				fault, faultAt, c.after = c.after, len(forward)-1, nil
			}
		}
	}
	c.mu.Unlock()
	for i, frame := range forward {
		if _, err := c.inner.Write(frame); err != nil {
			return 0, err
		}
		if i == faultAt {
			fault(c)
		}
	}
	return len(p), nil
}

func (c *Conn) Read(p []byte) (int, error)         { return c.inner.Read(p) }
func (c *Conn) Close() error                       { return c.inner.Close() }
func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// ConnTap wraps every connection a self-healing agent dials, so fault
// directives survive reconnects: a frame-loss directive applies to
// whichever connection is currently live, and DropConn kills the current
// one (the agent is expected to dial a fresh connection, which the tap
// wraps in turn).
type ConnTap struct {
	mu         sync.Mutex
	cur        *Conn
	dropFrames int64
	dials      int
}

// Dial decorates a dial function so every connection it produces is
// fault-wrapped and registered as the tap's current connection.
func (t *ConnTap) Dial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		inner, err := dial()
		if err != nil {
			return nil, err
		}
		c := WrapConn(inner)
		t.mu.Lock()
		if t.dropFrames > 0 {
			c.DropFrames(t.dropFrames)
			t.dropFrames = 0
		}
		t.cur = c
		t.dials++
		t.mu.Unlock()
		return c, nil
	}
}

// DropFrames discards the next n frames on the current connection (or
// the next one dialed, if none is live).
func (t *ConnTap) DropFrames(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		t.cur.DropFrames(n)
		return
	}
	t.dropFrames += n
}

// AfterFrames arms Conn.AfterFrames on the current connection; it reports
// whether one existed.
func (t *ConnTap) AfterFrames(n int64, fn func(*Conn)) bool {
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	if cur == nil {
		return false
	}
	cur.AfterFrames(n, fn)
	return true
}

// DropConn severs the current connection; it reports whether one existed.
func (t *ConnTap) DropConn() bool {
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	if cur == nil {
		return false
	}
	cur.DropNow()
	return true
}

// Dials reports how many connections the tap has wrapped — 1 for the
// initial dial, +1 per reconnect.
func (t *ConnTap) Dials() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials
}

// Dropped reports how many frames the current connection has dropped
// (0 if no connection is live).
func (t *ConnTap) Dropped() int64 {
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	if cur == nil {
		return 0
	}
	return cur.Dropped()
}
