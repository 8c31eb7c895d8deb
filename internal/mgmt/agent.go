package mgmt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/metrics"
)

// AgentOptions tunes the agent's self-healing behavior. The zero value
// gives the defaults documented per field.
type AgentOptions struct {
	// ReportEvery > 0 enables periodic measurement reports (proxies).
	ReportEvery time.Duration
	// Dial overrides how the agent (re)connects; nil dials the server
	// address over TCP. Fault-injection harnesses wrap it (see
	// faultinject.ConnTap) to interpose a fault-carrying connection.
	// When set, it wins over Addrs/DialAddr.
	Dial func() (net.Conn, error)
	// Addrs lists the controller replica addresses. The agent rotates
	// through them on reconnect and follows a NotLeader redirect to the
	// address it names, so it re-homes to whichever replica leads.
	// Empty means the single address passed to NewAgentWith.
	Addrs []string
	// DialAddr overrides how one specific address is dialed (nil = TCP).
	DialAddr func(addr string) (net.Conn, error)
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 10ms and 2s). Each failed dial doubles the base
	// delay; the actual sleep is uniformly drawn from [base/2, base].
	BackoffMin, BackoffMax time.Duration
	// HealthyPeriod is how long a connection must survive before the
	// reconnect backoff resets to BackoffMin (default BackoffMax). A
	// flapping link — connects that die immediately — keeps the grown
	// backoff, so reconnect storms stay bounded; only a genuinely
	// healthy spell earns the fast retry back.
	HealthyPeriod time.Duration
	// Seed drives the backoff jitter (default: the device's node ID, so
	// a fleet of agents created together de-synchronizes its retries
	// deterministically).
	Seed int64
	// Metrics, when non-nil, is the registry the agent counts its
	// self-healing activity in (reconnects, applies, epoch rejects,
	// reports) under a node label; nil gives the agent a private one.
	// Stats reads the same counters either way.
	Metrics *metrics.Registry
}

func (o *AgentOptions) fill(dev *live.Device, serverAddr string) {
	if len(o.Addrs) == 0 {
		o.Addrs = []string{serverAddr}
	}
	if o.DialAddr == nil {
		o.DialAddr = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
	if o.HealthyPeriod <= 0 {
		o.HealthyPeriod = o.BackoffMax
	}
	if o.Seed == 0 {
		o.Seed = int64(dev.Node.ID) + 1
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry(nil)
	}
}

// AgentStats counts the agent's self-healing activity: a snapshot of its
// registry counters (two agents of one node sharing a registry share
// them).
type AgentStats struct {
	// Reconnects counts re-dials after the initial connect that reached a
	// replica. It moves before the re-HELLO is sent, so whoever sees the
	// agent registered again (Server.WaitConnected) also sees the count.
	Reconnects int64
	// Applies counts configurations actually installed on the device.
	Applies int64
	// StaleConfigs counts plans and commits acked idempotently because
	// their epoch was already applied (reconnect re-pushes and commit
	// retries crossing an earlier ack).
	StaleConfigs int64
	// ReportsSent counts measurement reports shipped to the controller.
	ReportsSent int64
	// Prepared counts plans staged by a two-phase prepare.
	Prepared int64
	// Committed counts staged plans atomically applied on commit.
	Committed int64
	// Aborted counts staged plans discarded by an abort.
	Aborted int64
	// StaleTerms counts plans refused because their leadership term was
	// older than one already seen — pushes from a deposed controller.
	StaleTerms int64
	// Redirects counts NotLeader bounces followed to another replica.
	Redirects int64
}

// Agent is the device-side endpoint: it connects a live runtime device to
// the controller's management server, applies pushed configurations
// inside the device's own goroutine, and (for proxies) reports traffic
// measurements periodically.
//
// The agent is self-healing: when its connection dies it redials with
// jittered exponential backoff, re-introduces itself with a HELLO
// carrying the last applied epoch, and resumes measurement reporting on
// the new connection — unsent reports are carried over, not lost.
type Agent struct {
	dev  *live.Device
	opts AgentOptions

	// writeMu guards conn (both the pointer swap on reconnect and frame
	// writes), keeping each frame whole on whichever connection is live.
	writeMu sync.Mutex
	conn    net.Conn

	epoch atomic.Uint64 // last applied config epoch
	term  atomic.Uint64 // highest leadership term seen on any push
	m     *agentMetrics // the counters Stats reads

	// addrMu guards the replica-address rotation: which of opts.Addrs
	// the next dial targets.
	addrMu  sync.Mutex
	addrIdx int

	// planMu guards the agent's two plans: applied, the configuration it
	// last installed on the device (at epoch, which every prepare-delta's
	// base must name), and staged, the one prepared-but-uncommitted plan of
	// the two-phase rollout (twophase.go). Both survive reconnects — the
	// commit may arrive on a different connection than the prepare did.
	planMu  sync.Mutex
	applied enforce.Config
	staged  *stagedPlan

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAgent dials the server, introduces the device, and starts the agent
// loops with default self-healing options. reportEvery > 0 enables
// periodic measurement reports (proxies).
func NewAgent(dev *live.Device, serverAddr string, reportEvery time.Duration) (*Agent, error) {
	return NewAgentWith(dev, serverAddr, AgentOptions{ReportEvery: reportEvery})
}

// NewAgentWith is NewAgent with explicit options. The initial dial is
// synchronous — a fleet with every replica down at startup is an error;
// only connections lost after a successful start heal automatically.
// With multiple Addrs, each replica is tried once (following one
// NotLeader redirect per try) before giving up.
func NewAgentWith(dev *live.Device, serverAddr string, opts AgentOptions) (*Agent, error) {
	opts.fill(dev, serverAddr)
	a := &Agent{dev: dev, opts: opts, stop: make(chan struct{})}
	a.m = newAgentMetrics(opts.Metrics, int(dev.Node.ID))
	var conn net.Conn
	var err error
	for try := 0; try < 2*len(opts.Addrs); try++ {
		conn, err = a.connect(false)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("mgmt: dial %v: %w", opts.Addrs, err)
	}
	a.wg.Add(1)
	go a.run(conn)
	if opts.ReportEvery > 0 && dev.Node.IsProxy {
		a.wg.Add(1)
		go a.reportLoop(opts.ReportEvery)
	}
	return a, nil
}

// Close stops the agent.
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.writeMu.Lock()
	if a.conn != nil {
		_ = a.conn.Close()
	}
	a.writeMu.Unlock()
	a.wg.Wait()
}

// LastEpoch returns the last configuration epoch the agent applied.
func (a *Agent) LastEpoch() uint64 { return a.epoch.Load() }

// Stats snapshots the agent's self-healing counters.
func (a *Agent) Stats() AgentStats {
	m := a.m
	return AgentStats{
		Reconnects:   m.reconnects.Value(),
		Applies:      m.applies.Value(),
		StaleConfigs: m.epochRejects.Value(),
		ReportsSent:  m.reports.Value(),
		Prepared:     m.prepares.Value(),
		Committed:    m.commits.Value(),
		Aborted:      m.aborts.Value(),
		StaleTerms:   m.termRejects.Value(),
		Redirects:    m.redirects.Value(),
	}
}

// LastTerm returns the highest leadership term the agent has seen.
func (a *Agent) LastTerm() uint64 { return a.term.Load() }

// currentAddr returns the replica address the next dial targets.
func (a *Agent) currentAddr() string {
	a.addrMu.Lock()
	defer a.addrMu.Unlock()
	return a.opts.Addrs[a.addrIdx]
}

// rotateAddr advances the rotation after a failed dial, so consecutive
// reconnect attempts walk the replica set instead of hammering one.
func (a *Agent) rotateAddr() {
	a.addrMu.Lock()
	a.addrIdx = (a.addrIdx + 1) % len(a.opts.Addrs)
	a.addrMu.Unlock()
}

// followRedirect re-homes the rotation to the address a NotLeader
// bounce named; an empty or unknown address just rotates.
func (a *Agent) followRedirect(addr string) {
	a.addrMu.Lock()
	defer a.addrMu.Unlock()
	if addr != "" {
		for i, s := range a.opts.Addrs {
			if s == addr {
				a.addrIdx = i
				return
			}
		}
	}
	a.addrIdx = (a.addrIdx + 1) % len(a.opts.Addrs)
}

// connect dials the current replica and performs the HELLO handshake,
// installing the new connection as current. A failed dial or a
// NotLeader bounce advances the replica rotation for the next attempt.
// redial marks a reconnect, counted as soon as the dial succeeds: the
// server registers the connection inside the handshake, so counting after
// it would let the other side observe the agent connected with the
// counter still unmoved.
func (a *Agent) connect(redial bool) (net.Conn, error) {
	var conn net.Conn
	var err error
	if a.opts.Dial != nil {
		conn, err = a.opts.Dial()
	} else {
		conn, err = a.opts.DialAddr(a.currentAddr())
	}
	if err != nil {
		a.rotateAddr()
		return nil, err
	}
	if redial {
		a.m.reconnects.Inc()
	}
	a.writeMu.Lock()
	a.conn = conn
	// writeMu exists precisely to serialize frames on this conn; nothing
	// else contends for it during the handshake, and a stuck peer is cut
	// off by Close closing the conn, which fails the write.
	//vet:ignore lockedblocking -- writeMu serializes frames on this conn by design
	err = writeMsg(conn, TypeHello, Hello{
		NodeID: int(a.dev.Node.ID),
		Proxy:  a.dev.Node.IsProxy,
		Epoch:  a.epoch.Load(),
	})
	a.writeMu.Unlock()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	// The handshake completes on the server's hello-ack: from then on the
	// server routes pushes to this connection, never to a dying
	// predecessor. A config can legally overtake the hello-ack (a push
	// racing the registration), so handle those inline. Close unblocks
	// this read by closing a.conn.
	for {
		env, err := readMsg(conn)
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		switch env.T {
		case TypeHelloAck:
			return conn, nil
		case TypeNotLeader:
			// A standby bounced us: re-home to the leader it names (or
			// the next replica in the rotation) and redial.
			var nl NotLeader
			if json.Unmarshal(env.Data, &nl) == nil && nl.Validate() == nil {
				a.m.redirects.Inc()
				a.followRedirect(nl.LeaderAddr)
			} else {
				a.rotateAddr()
			}
			_ = conn.Close()
			return nil, fmt.Errorf("mgmt: replica is not the leader (redirect %q)", nl.LeaderAddr)
		default:
			a.dispatch(env)
		}
	}
}

// dispatch routes one server-originated message to its handler.
func (a *Agent) dispatch(env *Envelope) {
	switch env.T {
	case TypeConfig:
		a.handleConfig(env.Data)
	case TypePrepare:
		a.handlePrepare(env.Data)
	case TypePrepareDelta:
		a.handlePrepareDelta(env.Data)
	case TypeCommit:
		a.handleCommit(env.Data)
	case TypeAbort:
		a.handleAbort(env.Data)
	}
}

func (a *Agent) write(typ string, v interface{}) error {
	a.writeMu.Lock()
	defer a.writeMu.Unlock()
	if a.conn == nil {
		return errors.New("mgmt: agent not connected")
	}
	// writeMu's whole job is holding writers back while a frame goes out;
	// Close unblocks a stuck write by closing the conn under the mutex's
	// own discipline.
	//vet:ignore lockedblocking -- writeMu serializes frames on this conn by design
	return writeMsg(a.conn, typ, v)
}

// run owns the connection lifecycle: serve the current connection until
// it dies, then redial with jittered exponential backoff and re-HELLO.
//
// The backoff persists ACROSS connections: a link that flaps — dials
// that succeed but die before HealthyPeriod — keeps the grown delay, so
// a wedged replica or a dying leader never sees an unbounded reconnect
// storm. Only a connection that survives HealthyPeriod earns the reset
// to BackoffMin (nextBackoffBase, unit-tested in isolation).
func (a *Agent) run(conn net.Conn) {
	defer a.wg.Done()
	rng := rand.New(rand.NewSource(a.opts.Seed))
	backoff := a.opts.BackoffMin
	for {
		connectedAt := time.Now()
		a.readLoop(conn)
		_ = conn.Close()
		select {
		case <-a.stop:
			return
		default:
		}

		backoff = a.opts.nextBackoffBase(backoff, time.Since(connectedAt))
		for {
			// Uniform jitter in [backoff/2, backoff]: agents that lost
			// the same server don't stampede its listener in lockstep.
			sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-a.stop:
				timer.Stop()
				return
			}
			c, err := a.connect(true)
			if err == nil {
				// Close may have raced the dial: stop is closed but the
				// fresh conn escaped its sweep. Shut it down ourselves or
				// Close's wg.Wait would hang on a readLoop nobody kills.
				select {
				case <-a.stop:
					_ = c.Close()
					return
				default:
				}
				conn = c
				break
			}
			if backoff *= 2; backoff > a.opts.BackoffMax {
				backoff = a.opts.BackoffMax
			}
		}
	}
}

// nextBackoffBase decides the reconnect backoff after a connection
// died: a connection that survived HealthyPeriod resets to BackoffMin,
// a shorter-lived one (a flap) keeps the previous grown delay.
func (o *AgentOptions) nextBackoffBase(prev, connLife time.Duration) time.Duration {
	if connLife >= o.HealthyPeriod {
		return o.BackoffMin
	}
	if prev < o.BackoffMin {
		return o.BackoffMin
	}
	if prev > o.BackoffMax {
		return o.BackoffMax
	}
	return prev
}

// readLoop serves one connection until it dies.
func (a *Agent) readLoop(conn net.Conn) {
	for {
		env, err := readMsg(conn)
		if err != nil {
			return
		}
		a.dispatch(env)
	}
}

// fenceTerm folds a pushed plan's leadership term into the agent's
// high-water mark. It returns a non-empty refusal reason when the term
// is older than one already seen: the pusher is a deposed leader, and
// its plan must be refused outright — NOT acked idempotently — so the
// stale controller learns it lost (split-brain fencing, DESIGN §11).
// Term 0 (a standalone, non-replicated controller) is never fenced.
func (a *Agent) fenceTerm(term uint64) string {
	if term == 0 {
		return ""
	}
	for {
		cur := a.term.Load()
		if term < cur {
			a.m.termRejects.Inc()
			return fmt.Sprintf("stale term %d (current %d)", term, cur)
		}
		if term == cur || a.term.CompareAndSwap(cur, term) {
			return ""
		}
	}
}

// admit runs the checks every plan-carrying message passes before it may
// touch agent state, acking and returning false when it must go no
// further (prepared marks the acks of two-phase stages):
//
//   - Trust boundary: nothing from the wire reaches the device before
//     Validate passes (enforced by the wiretaint analyzer). An invalid
//     plan is refused whole, at stage time, so it fails the quorum
//     before any node flips.
//   - Term fencing comes BEFORE epoch idempotence: a deposed leader
//     re-pushing an old epoch must be refused, not idempotently acked.
//   - Epoch idempotence: a plan the device already runs (a reconnect
//     re-push racing an earlier delivery) is acked without re-applying
//     or staging — at-most-once application per epoch.
func (a *Agent) admit(seq, epoch, term uint64, invalid error, prepared bool) bool {
	if invalid != nil {
		_ = a.write(TypeAck, Ack{Seq: seq, Epoch: epoch, Error: invalid.Error(), Prepared: prepared})
		return false
	}
	if reason := a.fenceTerm(term); reason != "" {
		_ = a.write(TypeAck, Ack{Seq: seq, Epoch: epoch, Term: a.term.Load(), Error: reason, Prepared: prepared})
		return false
	}
	if epoch != 0 && epoch <= a.epoch.Load() {
		a.m.epochRejects.Inc()
		_ = a.write(TypeAck, Ack{Seq: seq, Epoch: epoch, Prepared: prepared})
		return false
	}
	return true
}

// stage holds a prepared plan until its commit or abort. A newer prepare
// supersedes an older staged plan (the older epoch's commit can no longer
// win: its quorum failed or this one would not have been issued). The ack
// carries Prepared so the server never mistakes "staged" for "running".
func (a *Agent) stage(seq uint64, st *stagedPlan) {
	a.planMu.Lock()
	a.staged = st
	a.planMu.Unlock()
	a.m.prepares.Inc()
	_ = a.write(TypeAck, Ack{Seq: seq, Epoch: st.epoch, Prepared: true})
}

// handleConfig installs one directly pushed full configuration — the
// server's reconnect catch-up — and acks it.
func (a *Agent) handleConfig(data []byte) {
	var dto ConfigDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		_ = a.write(TypeAck, Ack{Seq: dto.Seq, Error: "bad config: " + err.Error()})
		return
	}
	if !a.admit(dto.Seq, dto.Epoch, dto.Term, dto.Validate(), false) {
		return
	}
	errStr := ""
	if cfg, err := ConfigFromDTO(dto); err != nil {
		errStr = err.Error()
	} else {
		errStr = a.install(dto.Epoch, cfg)
	}
	_ = a.write(TypeAck, Ack{Seq: dto.Seq, Epoch: dto.Epoch, Error: errStr})
}

// reportLoop periodically snapshots and resets the proxy's measurements
// (inside the device goroutine) and ships them to the controller — the
// paper's §III-C reporting path. The loop outlives any one connection:
// rows that fail to send (connection down, reconnect in progress) are
// carried over and shipped with the next tick's batch, so an outage
// delays measurements but does not lose them.
func (a *Agent) reportLoop(every time.Duration) {
	defer a.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	var carry []MeasureRow
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			rows := carry
			ok := a.dev.Do(func(n *enforce.Node) {
				for k, v := range n.Measurements() {
					rows = append(rows, MeasureRow{
						PolicyID: k.PolicyID, SrcSubnet: k.SrcSubnet,
						DstSubnet: k.DstSubnet, Packets: v,
					})
				}
				n.ResetMeasurements()
			})
			if !ok {
				return // device stopped for good
			}
			if len(rows) == 0 {
				carry = nil
				continue
			}
			if err := a.write(TypeMeasure, Measure{NodeID: int(a.dev.Node.ID), Rows: rows}); err != nil {
				carry = compactRows(rows)
				continue
			}
			a.m.reports.Inc()
			carry = nil
		}
	}
}

// compactRows merges carried-over measurement rows by key so a long
// outage accumulates bounded state (one row per measurement bucket).
func compactRows(rows []MeasureRow) []MeasureRow {
	type key struct {
		policy, src, dst int
	}
	sums := make(map[key]int64, len(rows))
	order := make([]key, 0, len(rows))
	for _, r := range rows {
		k := key{r.PolicyID, r.SrcSubnet, r.DstSubnet}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += r.Packets
	}
	out := make([]MeasureRow, len(order))
	for i, k := range order {
		out[i] = MeasureRow{PolicyID: k.policy, SrcSubnet: k.src, DstSubnet: k.dst, Packets: sums[k]}
	}
	return out
}
