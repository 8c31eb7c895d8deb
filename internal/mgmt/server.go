package mgmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/topo"
)

// Transport-level push failures. All are retryable (the condition can
// heal: an agent reconnects, a wedged device recovers); a *RefusedError
// is not — the agent deterministically rejected the configuration.
var (
	// ErrNotConnected: the node has no live agent connection right now.
	ErrNotConnected = errors.New("no agent connection")
	// ErrConnClosed: the connection died while the push was in flight.
	ErrConnClosed = errors.New("connection closed")
	// ErrAckTimeout: the agent did not ack within the per-attempt budget.
	ErrAckTimeout = errors.New("ack timeout")
	// ErrServerClosed: the server is shutting down.
	ErrServerClosed = errors.New("server closed")
)

// ErrNotLeader: this controller replica was deposed (or never led);
// pushing plans from it would race the current leader's, so the server
// refuses locally before anything reaches the wire. Not retryable
// against this replica — the caller re-homes to the leader.
var ErrNotLeader = errors.New("not the leader")

// RefusedError is an agent's deterministic rejection of a configuration;
// retrying the same plan cannot succeed.
type RefusedError struct {
	Node   topo.NodeID
	Reason string
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("mgmt: node %v refused config: %s", e.Node, e.Reason)
}

// RetryPolicy bounds a push: Attempts tries total, each waiting
// PerAttempt for the ack, sleeping Backoff<<(k-1) before retry k.
// The zero value means one attempt with a 2s ack budget.
type RetryPolicy struct {
	Attempts   int
	PerAttempt time.Duration
	Backoff    time.Duration
}

func (p RetryPolicy) fill() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.PerAttempt <= 0 {
		p.PerAttempt = 2 * time.Second
	}
	if p.Backoff <= 0 {
		p.Backoff = 25 * time.Millisecond
	}
	return p
}

// DefaultRepushPolicy governs the automatic catch-up push to a
// reconnecting agent that reports a stale epoch.
var DefaultRepushPolicy = RetryPolicy{Attempts: 3, PerAttempt: 2 * time.Second, Backoff: 50 * time.Millisecond}

// Server is the controller-side endpoint of the management channel. It
// accepts agent connections, tracks which node each serves, pushes
// configuration, and surfaces measurement reports.
//
// Dependability machinery: every rollout stamps a monotonic epoch and,
// once decided, is recorded as each node's latest intended plan — even
// for a node that is disconnected by then. When an agent (re)connects and
// its HELLO reports an older epoch, the server re-pushes the latest plan
// automatically, so a node that missed reconfigurations while down
// converges without operator involvement. Acks carry the epoch back;
// Converged answers whether every node runs the latest plan.
type Server struct {
	l net.Listener

	mu    sync.Mutex
	conns map[topo.NodeID]*serverConn
	// open holds every accepted connection until its serveConn returns,
	// registered or not: Close closes them all, so a peer that never
	// says hello, or an agent's superseded connection, cannot hold it.
	open    map[net.Conn]bool
	nextSeq uint64
	epoch   uint64
	latest  map[topo.NodeID]nodeConfig
	acked   map[topo.NodeID]uint64
	onMeas  func(topo.NodeID, []MeasureRow)
	closed  bool
	repush  RetryPolicy

	// Replicated-controller state (replica.go / DESIGN §11). term is
	// stamped on every outgoing plan so agents can fence a deposed
	// leader; notLeader gates pushes locally and bounces connecting
	// agents to leaderAddr with a NotLeader frame. A standalone server
	// (the single-controller substrates) never sets either: term 0 is
	// omitted on the wire and the gate stays open.
	term       uint64
	notLeader  bool
	leaderAddr string

	// sm is the optional metrics attachment (observe.go).
	sm smPtr

	stop chan struct{}
	wg   sync.WaitGroup
}

// nodeConfig is a node's latest decided plan: the full configuration it
// runs from epoch on, decided under term.
type nodeConfig struct {
	epoch, term uint64
	cfg         enforce.Config
}

// wire is the plan's full wire form, built only when it goes out whole: a
// fallback prepare after a base refusal, or the reconnect catch-up.
func (p nodeConfig) wire() ConfigDTO {
	dto := ConfigToDTO(0, p.cfg)
	dto.Epoch, dto.Term = p.epoch, p.term
	return dto
}

type serverConn struct {
	node topo.NodeID
	conn net.Conn
	// closed is closed when the read loop exits, so pushes waiting on an
	// ack fail the moment the connection dies instead of burning their
	// full timeout.
	closed chan struct{}

	writeMu sync.Mutex
	ackMu   sync.Mutex
	pending map[uint64]chan Ack // seq -> ack
}

// NewServer starts a management server listening on addr ("127.0.0.1:0"
// for tests/demos).
func NewServer(addr string, onMeasure func(topo.NodeID, []MeasureRow)) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mgmt: listen: %w", err)
	}
	s := &Server{
		l:      l,
		conns:  make(map[topo.NodeID]*serverConn),
		open:   make(map[net.Conn]bool),
		latest: make(map[topo.NodeID]nodeConfig),
		acked:  make(map[topo.NodeID]uint64),
		onMeas: onMeasure,
		repush: DefaultRepushPolicy,
		stop:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address for agents to dial.
func (s *Server) Addr() string { return s.l.Addr().String() }

// SetRepushPolicy overrides the reconnect catch-up policy (tests and
// experiments shorten it).
func (s *Server) SetRepushPolicy(p RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repush = p.fill()
}

// SetLeader marks this replica's server as the leader at the given
// term: the push gate opens and every subsequent plan is stamped with
// the term (agents refuse anything older — split-brain fencing).
func (s *Server) SetLeader(term uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if term > s.term {
		s.term = term
	}
	s.notLeader = false
	s.leaderAddr = ""
}

// SetNotLeader closes the push gate — this replica was deposed or has
// not (yet) won a term. Pushes fail locally with ErrNotLeader and
// agents that connect are bounced to leaderAddr ("" = unknown; the
// agent rotates through its configured replicas instead).
func (s *Server) SetNotLeader(leaderAddr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notLeader = true
	s.leaderAddr = leaderAddr
}

// Term returns the leadership term the server stamps on pushes.
func (s *Server) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// DropAllConns severs every live agent connection (returning how many).
// A deposed leader calls this so its agents re-home to the new leader
// instead of idling on a replica that can no longer push plans.
func (s *Server) DropAllConns() int {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.conn.Close()
	}
	return len(conns)
}

// Close shuts the server and all connections down.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.open))
	for c := range s.open {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.stop)
	_ = s.l.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// Connected returns the nodes with live agent connections, in ID order.
func (s *Server) Connected() []topo.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]topo.NodeID, 0, len(s.conns))
	for id := range s.conns {
		out = append(out, id)
	}
	return topo.SortedIDs(out)
}

// WaitConnected blocks until all the given nodes have connected or the
// timeout passes; it reports success.
func (s *Server) WaitConnected(timeout time.Duration, nodes ...topo.NodeID) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		have := make(map[topo.NodeID]bool)
		for _, id := range s.Connected() {
			have[id] = true
		}
		all := true
		for _, id := range nodes {
			if !have[id] {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// DropConn severs a node's management connection mid-stream (the
// fault-injection hook for the control channel); it reports whether a
// connection existed. A self-healing agent will reconnect on its own.
func (s *Server) DropConn(node topo.NodeID) bool {
	s.mu.Lock()
	c := s.conns[node]
	s.mu.Unlock()
	if c == nil {
		return false
	}
	_ = c.conn.Close()
	return true
}

// Epoch returns the latest epoch the server has assigned.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ResumeEpoch fast-forwards the epoch counter to at least e — the
// crash-recovery path: a controller restored from its journal resumes
// numbering above every epoch it may have pushed before dying, so its
// first post-restart plan is a fresh epoch the idempotent agents will
// apply rather than discard as stale.
func (s *Server) ResumeEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.epoch {
		s.epoch = e
	}
}

// AckedEpoch returns the highest epoch a node has acknowledged.
func (s *Server) AckedEpoch(node topo.NodeID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked[node]
}

// Converged reports whether every given node has acked the latest plan
// recorded for it (nodes never pushed to are trivially converged).
func (s *Server) Converged(nodes ...topo.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range nodes {
		latest, ok := s.latest[id]
		if !ok {
			continue
		}
		if s.acked[id] < latest.epoch {
			return false
		}
	}
	return true
}

// repushLatest is the reconnect catch-up: it re-sends the node's recorded
// latest FULL configuration (same epoch, fresh seq per attempt) to an
// agent whose hello reported an older epoch. It is the only direct
// TypeConfig sender; every new plan goes through PushAllDelta2PC.
func (s *Server) repushLatest(node topo.NodeID, latest nodeConfig, pol RetryPolicy) error {
	s.mu.Lock()
	closed, notLeader := s.closed, s.notLeader
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("mgmt: re-push to %v: %w", node, ErrServerClosed)
	}
	if notLeader {
		// Deposed-leader self-gate: the stale plan dies here, before it
		// could race the current leader's pushes at any agent.
		return fmt.Errorf("mgmt: re-push to %v: %w", node, ErrNotLeader)
	}
	dto := latest.wire()
	s.smInc(func(m *serverMetrics) *metrics.Counter { return m.pushes })
	return s.callRetry(node, TypeConfig, func(seq uint64) interface{} {
		dto.Seq = seq
		return dto
	}, pol, dto.Epoch)
}

// callRetry is the bounded-retry engine shared by the catch-up re-push
// and the two-phase rollout messages: each attempt gets a fresh seq and its own
// ack budget; transport errors retry with exponential backoff, an agent's
// refusal returns immediately. recordEpoch, when non-zero, advances the
// node's acked-epoch record on success (zero for prepare: a staged plan
// is not a converged one).
func (s *Server) callRetry(node topo.NodeID, typ string, mk func(seq uint64) interface{}, pol RetryPolicy, recordEpoch uint64) error {
	pol = pol.fill()
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			s.smInc(func(m *serverMetrics) *metrics.Counter { return m.retries })
			select {
			case <-time.After(pol.Backoff << (attempt - 1)):
			case <-s.stop:
				return fmt.Errorf("mgmt: push to %v: %w", node, ErrServerClosed)
			}
		}
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.attempts })
		lastErr = s.callOnce(node, typ, mk, pol.PerAttempt, recordEpoch)
		if lastErr == nil {
			return nil
		}
		var refused *RefusedError
		if errors.As(lastErr, &refused) {
			s.smInc(func(m *serverMetrics) *metrics.Counter { return m.refused })
			return lastErr
		}
	}
	s.smInc(func(m *serverMetrics) *metrics.Counter { return m.failures })
	return lastErr
}

// callOnce is one wire attempt: assign a seq, send, wait for the ack,
// the connection's death, or the timeout — whichever first. mk builds
// the payload around the assigned seq.
func (s *Server) callOnce(node topo.NodeID, typ string, mk func(seq uint64) interface{}, timeout time.Duration, recordEpoch uint64) error {
	s.mu.Lock()
	c := s.conns[node]
	if c == nil {
		// No connection: return before consuming a sequence number or
		// registering pending state.
		s.mu.Unlock()
		return fmt.Errorf("mgmt: push to %v: %w", node, ErrNotConnected)
	}
	s.nextSeq++
	seq := s.nextSeq
	s.mu.Unlock()

	ackCh := make(chan Ack, 1)
	c.ackMu.Lock()
	c.pending[seq] = ackCh
	c.ackMu.Unlock()
	defer func() {
		c.ackMu.Lock()
		delete(c.pending, seq)
		c.ackMu.Unlock()
	}()

	c.writeMu.Lock()
	// writeMu serializes concurrent pushers' frames on this conn; a hung
	// peer is bounded by the ack timeout whose expiry closes the conn.
	//vet:ignore lockedblocking -- writeMu serializes frames on this conn by design
	n, err := writeMsg(c.conn, typ, mk(seq))
	c.writeMu.Unlock()
	if err != nil {
		return fmt.Errorf("mgmt: push to %v: %w (%v)", node, ErrConnClosed, err)
	}
	s.observePushBytes(typ, n)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var ack Ack
	select {
	case ack = <-ackCh:
	case <-c.closed:
		// An ack that landed just before the connection died still
		// counts: the read loop queues it before it can see the close.
		select {
		case ack = <-ackCh:
		default:
			return fmt.Errorf("mgmt: push to %v: %w", node, ErrConnClosed)
		}
	case <-timer.C:
		return fmt.Errorf("mgmt: push to %v: %w", node, ErrAckTimeout)
	case <-s.stop:
		return fmt.Errorf("mgmt: push to %v: %w", node, ErrServerClosed)
	}
	if ack.Error != "" {
		return &RefusedError{Node: node, Reason: ack.Error}
	}
	if recordEpoch != 0 {
		s.recordAck(node, recordEpoch)
	}
	return nil
}

// recordAck advances a node's acked-epoch high-water mark; stale acks
// (an older epoch landing late) never regress it.
func (s *Server) recordAck(node topo.NodeID, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.acked[node] {
		s.acked[node] = epoch
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.open[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.open, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, readBufSize)
	env, err := readMsg(r)
	if err != nil || env.T != TypeHello {
		_ = conn.Close()
		return
	}
	var hello Hello
	if err := json.Unmarshal(env.Data, &hello); err != nil {
		_ = conn.Close()
		return
	}
	// Trust boundary: an unvalidated hello must not register a
	// connection (a negative node id would alias the map key space).
	if err := hello.Validate(); err != nil {
		_ = conn.Close()
		return
	}
	c := &serverConn{
		node:    topo.NodeID(hello.NodeID),
		conn:    conn,
		closed:  make(chan struct{}),
		pending: make(map[uint64]chan Ack),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if s.notLeader {
		// Bounce the agent to the leader instead of registering it: a
		// standby cannot push plans, so an agent parked here would never
		// converge. The redirect carries the leader's address when known.
		nl := NotLeader{LeaderAddr: s.leaderAddr, Term: s.term}
		s.mu.Unlock()
		_, _ = writeMsg(conn, TypeNotLeader, nl)
		_ = conn.Close()
		return
	}
	s.conns[c.node] = c
	latest, haveLatest := s.latest[c.node]
	repush := s.repush
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.conns[c.node] == c {
			delete(s.conns, c.node)
		}
		s.mu.Unlock()
		close(c.closed)
		_ = conn.Close()
	}()

	// Confirm the registration before serving: the agent completes its
	// handshake only on this ack, so once a caller observes the agent as
	// connected, pushes are guaranteed to route to this connection and
	// not to a predecessor that is still draining its EOF.
	c.writeMu.Lock()
	// Same frame-serialization mutex as pushOnce; the handshake ack is
	// the first frame out, nothing else holds writeMu yet.
	//vet:ignore lockedblocking -- writeMu serializes frames on this conn by design
	_, ackErr := writeMsg(conn, TypeHelloAck, Ack{})
	c.writeMu.Unlock()
	if ackErr != nil {
		return
	}
	s.smInc(func(m *serverMetrics) *metrics.Counter { return m.connects })

	// Reconnect catch-up: if the agent's last applied epoch is behind the
	// latest plan recorded for it, re-push that plan (same epoch, fresh
	// seq). An agent already at the latest epoch gets nothing — the push
	// is idempotent, not periodic.
	if haveLatest && latest.epoch > hello.Epoch {
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.repush })
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.repushLatest(c.node, latest, repush)
		}()
	}

	for {
		env, err := readMsg(r)
		if err != nil {
			return
		}
		switch env.T {
		case TypeAck:
			var ack Ack
			if json.Unmarshal(env.Data, &ack) != nil {
				continue
			}
			c.ackMu.Lock()
			ch := c.pending[ack.Seq]
			c.ackMu.Unlock()
			if ch != nil {
				select {
				case ch <- ack:
				default: // duplicate ack for a seq already answered
				}
			}
			// Acks for unknown seqs are stale (a prior attempt timed out
			// or its pusher gave up) and are dropped here; the epoch
			// record still advances so convergence tracking survives an
			// ack that outlives its waiter. Prepare acks are excluded: a
			// staged plan is not an applied one.
			if ch == nil && ack.Error == "" && ack.Epoch != 0 && !ack.Prepared {
				s.recordAck(c.node, ack.Epoch)
			}
		case TypeMeasure:
			var m Measure
			if json.Unmarshal(env.Data, &m) != nil {
				continue
			}
			// Trust boundary: a malformed report (negative counts) must
			// not reach the solver's measurement matrix.
			if m.Validate() != nil {
				continue
			}
			s.smInc(func(mm *serverMetrics) *metrics.Counter { return mm.reports })
			if s.onMeas != nil {
				s.onMeas(topo.NodeID(m.NodeID), m.Rows)
			}
		}
	}
}
