package mgmt

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// PeerBus is the live-substrate transport between controller replicas:
// election and journal-replication envelopes ride the same wire format
// as the management channel, over a dedicated listener per replica.
// Sends are best-effort — a failed dial or write drops the cached
// connection and returns the error; the election protocol retries by
// timeout and replication by heartbeat-driven catch-up, so the bus
// never needs its own retry machinery.
//
// The sim substrate does not use PeerBus; it delivers envelopes through
// the engine's event queue on virtual time (sim.ControllerGroup).
type PeerBus struct {
	id     int
	l      net.Listener
	onRecv func(env *Envelope)

	mu      sync.Mutex
	peers   map[int]string // replica id -> bus address
	conns   map[int]net.Conn
	inbound []net.Conn
	closed  bool

	wg sync.WaitGroup
}

// NewPeerBus starts a replica's bus listening on addr ("127.0.0.1:0"
// for tests). onRecv is called on a reader goroutine for every envelope
// from any peer; wire the replica's Deliver here. Call SetPeers once
// every replica's address is known.
func NewPeerBus(id int, addr string, onRecv func(env *Envelope)) (*PeerBus, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mgmt: peer bus listen: %w", err)
	}
	b := &PeerBus{
		id:     id,
		l:      l,
		onRecv: onRecv,
		peers:  make(map[int]string),
		conns:  make(map[int]net.Conn),
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the bus's listen address for the other replicas.
func (b *PeerBus) Addr() string { return b.l.Addr().String() }

// SetPeers installs (or replaces) the replica address map.
func (b *PeerBus) SetPeers(addrs map[int]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peers = make(map[int]string, len(addrs))
	for id, a := range addrs {
		b.peers[id] = a
	}
}

// Send carries one envelope to a peer replica, dialing lazily and
// caching the connection. Implements ha.PeerTransport.
func (b *PeerBus) Send(to int, env *Envelope) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("mgmt: peer bus closed")
	}
	conn := b.conns[to]
	if conn == nil {
		addr, ok := b.peers[to]
		if !ok {
			b.mu.Unlock()
			return fmt.Errorf("mgmt: no address for replica %d", to)
		}
		var err error
		// A dead replica fails the dial quickly; the election tolerates
		// the bounded stall (its timeouts are an order larger).
		//vet:ignore lockedblocking -- lazy dial under the bus lock keeps send ordering per peer; bounded by the dial timeout
		conn, err = net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err != nil {
			b.mu.Unlock()
			return fmt.Errorf("mgmt: dial replica %d: %w", to, err)
		}
		b.conns[to] = conn
	}
	// Frame writes stay under the bus lock so concurrent senders (the
	// elector's timers, the replicator's append hook) never interleave
	// partial frames on one connection.
	//vet:ignore lockedblocking -- bus lock serializes frames per peer connection by design
	_, err := writeMsg(conn, env.T, env.Data)
	if err != nil {
		delete(b.conns, to)
		_ = conn.Close()
	}
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mgmt: send to replica %d: %w", to, err)
	}
	return nil
}

// Close shuts the bus down: the listener, every cached outbound
// connection, and every inbound reader.
func (b *PeerBus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	conns := make([]net.Conn, 0, len(b.conns)+len(b.inbound))
	for _, c := range b.conns {
		conns = append(conns, c)
	}
	conns = append(conns, b.inbound...)
	b.mu.Unlock()
	_ = b.l.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	b.wg.Wait()
}

func (b *PeerBus) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.l.Accept()
		if err != nil {
			return // listener closed
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			_ = conn.Close()
			return
		}
		b.inbound = append(b.inbound, conn)
		b.mu.Unlock()
		b.wg.Add(1)
		go b.readLoop(conn)
	}
}

// readLoop delivers every envelope from one peer connection. Envelope
// payloads are validated by the receiving handler (Elector.Deliver /
// ha.Replica.Deliver), not here — the bus is a dumb pipe.
func (b *PeerBus) readLoop(conn net.Conn) {
	defer b.wg.Done()
	r := bufio.NewReaderSize(conn, readBufSize)
	for {
		env, err := readMsg(r)
		if err != nil {
			return
		}
		b.onRecv(env)
	}
}
