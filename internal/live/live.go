// Package live runs the enforcement dataplane over real UDP sockets on
// the loopback interface: every proxy and middlebox is a goroutine with
// its own socket, IP-over-IP tunnels are actual encapsulated datagrams,
// and label-switched packets are actual shorter datagrams. The model
// addresses (10.x.., 172.31..) are mapped to 127.0.0.1:port endpoints by
// a fabric table that plays the role of the routed underlay.
//
// The same enforce.Node code runs here and in the discrete-event
// simulator; this package exists to demonstrate that the design is a
// deployable system, not only a simulation artifact.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
)

// Frame types on the wire: one leading byte before the payload.
const (
	frameData    = 0x01
	frameControl = 0x02
)

// maxFrame is the largest frame the fabric carries: a 1500-byte MTU
// packet with a tunnel's outer header and the type byte fits. Every read
// slot is this long; Inject refuses a longer frame, a forwarder counts one
// in Blackholed, and a reader counts one cut by its slot in Errors.
const maxFrame = 2 << 10

// listen opens a loopback UDP socket and the raw handle its batched reads
// and writes go through (batch_linux.go).
func listen() (*net.UDPConn, syscall.RawConn, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, raw, nil
}

// appendControl appends a §III-E control frame to dst: the type byte and
// the flow 5-tuple.
func appendControl(dst []byte, flow netaddr.FiveTuple) []byte {
	dst = append(dst, frameControl)
	dst = binary.BigEndian.AppendUint32(dst, uint32(flow.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(flow.Dst))
	dst = binary.BigEndian.AppendUint16(dst, flow.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, flow.DstPort)
	return append(dst, flow.Proto)
}

func unmarshalControl(b []byte) (netaddr.FiveTuple, error) {
	if len(b) < 13 {
		return netaddr.FiveTuple{}, fmt.Errorf("live: control frame too short (%d)", len(b))
	}
	return netaddr.FiveTuple{
		Src:     netaddr.Addr(binary.BigEndian.Uint32(b[0:])),
		Dst:     netaddr.Addr(binary.BigEndian.Uint32(b[4:])),
		SrcPort: binary.BigEndian.Uint16(b[8:]),
		DstPort: binary.BigEndian.Uint16(b[10:]),
		Proto:   b[12],
	}, nil
}

// Runtime owns the fabric (address → UDP endpoint map) and the devices.
type Runtime struct {
	mu sync.RWMutex
	// endpoints is the fabric table: an immutable map that register
	// replaces under mu and every send loads without a lock. A send may
	// resolve against the table from just before a concurrent AddDevice.
	endpoints atomic.Pointer[map[netaddr.Addr]netip.AddrPort]
	devices   []*Device
	sinks     []*Sink
	start     time.Time
	// injector is the one socket Inject writes through, opened by the
	// first Inject and closed by Close, and the scratch its frames are
	// built in. Its mutex is held across the write: the frame must stay
	// whole until the kernel has copied it.
	injector struct {
		mu     sync.Mutex
		conn   *net.UDPConn
		frame  []byte
		closed bool
	}
	// Blackholed counts datagrams addressed to unmapped addresses.
	Blackholed atomic.Int64
	// Dropped counts datagrams discarded by injected loss.
	Dropped atomic.Int64
	// GSOFallbacks counts worker senders whose kernel refused UDP GSO;
	// each sends one datagram per message from then on (batch_linux.go).
	GSOFallbacks atomic.Int64
	// lossNum/lossDen encode the loss probability as a rational so the
	// hot path needs no float math or locking; lossSeq drives a cheap
	// deterministic sequence.
	lossNum, lossDen atomic.Int64
	lossSeq          atomic.Int64
	// lm is the optional fabric metrics attachment (observe.go).
	lm atomic.Pointer[liveMetrics]
	// defaultWorkers sizes new devices' worker pools (0: GOMAXPROCS).
	defaultWorkers int
}

// NewRuntime creates an empty runtime.
func NewRuntime() *Runtime {
	r := &Runtime{start: time.Now()}
	r.endpoints.Store(&map[netaddr.Addr]netip.AddrPort{})
	return r
}

// SetDefaultWorkers sets the worker-pool size used by subsequent AddDevice
// calls (0 restores the GOMAXPROCS default). Call before adding devices.
func (r *Runtime) SetDefaultWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defaultWorkers = n
}

// now returns microseconds since runtime start (the dataplane's tick).
func (r *Runtime) now() int64 { return time.Since(r.start).Microseconds() }

// NowUS exposes the runtime clock (microseconds since start) — the live
// counterpart of the simulator's virtual clock, so experiments measure
// convergence on the same axis in both substrates.
func (r *Runtime) NowUS() int64 { return r.now() }

// register maps model addresses to the UDP endpoint conn listens on: one
// new table per call, published whole. The caller holds r.mu, which is
// what keeps two registrations from losing each other's entries.
func (r *Runtime) register(conn *net.UDPConn, addrs ...netaddr.Addr) {
	ap := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	ep := netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()) // a udp4 socket writes to 4-byte addresses only
	next := maps.Clone(*r.endpoints.Load())
	for _, a := range addrs {
		next[a] = ep
	}
	r.endpoints.Store(&next)
}

// Devices returns a snapshot of the runtime's devices. The health
// monitor iterates this while AddDevice may be registering more, so the
// slice is copied under the lock.
func (r *Runtime) Devices() []*Device {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Device(nil), r.devices...)
}

// lookup resolves a model address.
func (r *Runtime) lookup(a netaddr.Addr) (netip.AddrPort, bool) {
	ep, ok := (*r.endpoints.Load())[a]
	return ep, ok
}

// Close stops every device and sink and closes the injector socket; an
// Inject after it fails. Devices and sinks are snapshotted under the
// lock, then stopped outside it: stop() waits on each loop goroutine,
// which is too long to keep AddDevice and Devices out.
func (r *Runtime) Close() {
	r.injector.mu.Lock()
	r.injector.closed = true
	if r.injector.conn != nil {
		_ = r.injector.conn.Close()
	}
	r.injector.mu.Unlock()
	r.mu.RLock()
	devices := append([]*Device(nil), r.devices...)
	sinks := append([]*Sink(nil), r.sinks...)
	r.mu.RUnlock()
	for _, d := range devices {
		d.stop()
	}
	for _, s := range sinks {
		s.stop()
	}
}

// Device wraps one enforcement node, its socket and its worker pool: a
// single-producer receive loop (the dispatcher) parses frames into pooled
// packets and hands them to per-flow workers (workers.go).
type Device struct {
	Node     *enforce.Node
	rt       *Runtime
	conn     *net.UDPConn
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// health receives liveness probes, answered by the loop between
	// reads (see HealthMonitor).
	health chan chan struct{}
	// commands runs node mutations inside the loop goroutine (see Do).
	commands chan func()
	// pending counts submitters between announcing themselves and their
	// send (see submit); the loop does not block in a read while it is set.
	pending atomic.Int32
	// Errors counts dataplane errors observed by the loop.
	Errors atomic.Int64

	// workers are the per-flow FIFO queues; closed by the dispatcher on
	// shutdown, fully drained by the workers before they exit. fwds[i] is
	// worker i's forwarder.
	workers []chan workItem
	fwds    []*udpForwarder
	// dispLM / queueDepth are the dispatcher goroutine's cached metric
	// handles (workers.go); no other goroutine touches them.
	dispLM     *liveMetrics
	queueDepth *metrics.Histogram
}

// AddDevice opens a loopback socket for the node, registers its address
// and starts its receive loop with the runtime's worker count
// (SetDefaultWorkers). Proxies treat arriving data frames as outbound
// subnet traffic; middleboxes treat them as chain arrivals.
func (r *Runtime) AddDevice(n *enforce.Node) (*Device, error) {
	r.mu.RLock()
	workers := r.defaultWorkers
	r.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	conn, raw, err := listen()
	if err != nil {
		return nil, fmt.Errorf("live: listen for node %v: %w", n.ID, err)
	}
	// Best-effort: a deeper kernel receive queue absorbs bursts while the
	// dispatcher drains (the OS caps this at rmem_max; errors are fine).
	_ = conn.SetReadBuffer(4 << 20)
	d := &Device{
		Node:     n,
		rt:       r,
		conn:     conn,
		done:     make(chan struct{}),
		health:   make(chan chan struct{}),
		commands: make(chan func()),
	}
	d.startWorkers(workers, raw)
	r.mu.Lock()
	r.register(conn, n.Addr)
	r.devices = append(r.devices, d)
	r.mu.Unlock()
	d.wg.Add(1)
	go d.loop(newReader(conn, raw))
	return d, nil
}

// Workers returns the size of the device's worker pool.
func (d *Device) Workers() int { return len(d.workers) }

// Counters returns a consistent snapshot of the node's counters: a Do, so
// every already-dispatched frame is fully processed before the read.
func (d *Device) Counters() (c enforce.Counters) {
	if !d.Do(func(n *enforce.Node) { c = n.CountersSnapshot() }) {
		// Stop was requested, but the pool may still be draining its
		// queues; wait for it before reading the node directly.
		d.wg.Wait()
		c = d.Node.CountersSnapshot()
	}
	return c
}

// Do runs fn inside the device's dispatcher goroutine, after quiescing
// the worker pool, and waits for it — the race-free way to reconfigure a
// live node (the controller's repair and rebalance paths use it). It
// reports false if the device has stopped, in which case fn did not run.
func (d *Device) Do(fn func(n *enforce.Node)) bool {
	done := make(chan struct{})
	ok := submit(d, d.commands, func() {
		fn(d.Node)
		close(done)
	}, nil)
	if ok {
		<-done
	}
	return ok
}

// submit hands the dispatcher one request on one of its channels and
// reports whether the loop took it (false: the device stopped, or giveUp,
// if not nil, fired first). The dispatcher blocks in its socket read with no
// deadline but the next sweep's, so the submitter wakes it: it counts
// itself in pending, then expires the read deadline, which makes a blocked
// (or the next) read return at once. The loop resets the deadline (rearm)
// and then looks at pending before it reads again, so either it sees this
// submitter or this deadline lands after its reset: no wake is lost
// (DESIGN.md §12).
func submit[T any](d *Device, ch chan<- T, req T, giveUp <-chan time.Time) bool {
	d.pending.Add(1)
	defer d.pending.Add(-1)
	_ = d.conn.SetReadDeadline(time.Now()) // fails only on a closed socket: done is closed too
	select {
	case ch <- req:
		return true
	case <-giveUp:
		return false
	case <-d.done:
		return false
	}
}

func (d *Device) stop() {
	// Once, not a done-channel check: two concurrent stops (runtime
	// Close racing a failure-injecting test) must not double-close.
	d.stopOnce.Do(func() { close(d.done) })
	_ = d.conn.Close()
	d.wg.Wait()
}

// loop is the dispatcher: the device's single-producer receive loop. It
// reads up to batchSlots datagrams at a time, parses them into pooled
// packets, enqueues them on per-flow workers, and services the health and
// command channels between reads — quiescing the pool before a command,
// so it observes a consistent node. When the
// installed configuration has a TTL the read's deadline is the next soft
// state sweep (rearm); otherwise it has none. Either way submit interrupts
// it. On exit the loop closes the worker queues; workers drain them fully
// before stopping.
func (d *Device) loop(rd *reader) {
	defer d.wg.Done()
	defer func() {
		for _, ch := range d.workers {
			close(ch)
		}
	}()
	nextSweep, err := d.rearm(time.Time{})
	if err != nil {
		return
	}
	for {
		select {
		case <-d.done:
			return
		case resp := <-d.health:
			resp <- struct{}{}
			continue
		case fn := <-d.commands:
			d.quiesce()
			fn()
			// The command may have installed a TTL, or removed one.
			if nextSweep, err = d.rearm(nextSweep); err != nil {
				return
			}
			continue
		default:
		}
		if d.pending.Load() > 0 {
			// A submitter is between announcing itself and its send.
			runtime.Gosched()
			continue
		}
		n, err := rd.read()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// Woken by submit or by the sweep deadline: replace the
				// deadline, and only then let the pending check above run
				// again.
				if nextSweep, err = d.rearm(nextSweep); err != nil {
					return
				}
				continue
			}
			return // socket closed
		}
		now := d.rt.now() // one clock read per batch
		for i := range n {
			if frame, whole := rd.frame(i); whole {
				d.dispatch(frame, now)
			} else {
				d.Errors.Add(1)
			}
		}
	}
}

// rearm runs the soft-state sweep when it is due and returns the time of
// the next one, which it makes the socket's read deadline: half the
// shortest TTL of the installed configuration after the last sweep (at
// least minSweepEvery), or no deadline when nothing expires. Only the loop
// sets the deadline, and only here; it checks pending after rearm and
// before it reads again, so a submitter's wake that rearm overwrites is
// still seen (DESIGN.md §12). The sweep runs beside the workers: the
// tables hand out copies, so no worker holds what it removes.
func (d *Device) rearm(next time.Time) (time.Time, error) {
	cfg := d.Node.Config()
	ttl := cfg.FlowTTL
	if cfg.LabelTTL > 0 && (ttl <= 0 || cfg.LabelTTL < ttl) {
		ttl = cfg.LabelTTL
	}
	if ttl <= 0 {
		return time.Time{}, d.conn.SetReadDeadline(time.Time{})
	}
	every := max(time.Duration(ttl)*time.Microsecond/2, minSweepEvery)
	now := time.Now()
	if next.IsZero() || next.Sub(now) > every { // a TTL was installed or shortened
		next = now.Add(every)
	}
	if !now.Before(next) {
		d.Node.Sweep(d.rt.now())
		next = now.Add(every)
	}
	return next, d.conn.SetReadDeadline(next)
}

// minSweepEvery bounds how often a device sweeps, whatever its TTL: a
// sweep walks every slot, and below a millisecond the walks would crowd
// out the reads.
const minSweepEvery = time.Millisecond

// udpForwarder sends one worker's dataplane output onto the fabric. The
// device's workers share its socket; each has a forwarder of its own, so
// its slots have one writer. Send and SendControl build a frame in the
// next slot and stage it; flush hands every staged frame to the kernel in
// one batch. A full batch flushes itself, and workerLoop flushes the
// rest. A slot grows to the largest frame built in it and is never
// pre-sized.
type udpForwarder struct {
	rt     *Runtime
	out    sender
	staged int
	frames [batchSlots][]byte
	eps    [batchSlots]netip.AddrPort
}

var _ enforce.Forwarder = (*udpForwarder)(nil)

func newForwarder(rt *Runtime, conn *net.UDPConn, raw syscall.RawConn) *udpForwarder {
	f := &udpForwarder{rt: rt}
	f.out.init(conn, raw)
	return f
}

func (f *udpForwarder) Send(from *enforce.Node, pkt *packet.Packet) {
	ep, ok := f.rt.lookup(pkt.OutermostDst())
	if !ok {
		f.rt.Blackholed.Add(1)
		return
	}
	f.frames[f.staged] = pkt.AppendMarshal(append(f.frames[f.staged][:0], frameData))
	f.stage(ep)
}

func (f *udpForwarder) SendControl(from *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	ep, ok := f.rt.lookup(to)
	if !ok {
		f.rt.Blackholed.Add(1)
		return
	}
	f.frames[f.staged] = appendControl(f.frames[f.staged][:0], flow)
	f.stage(ep)
}

// stage commits the frame just built in the next slot, bound for ep,
// unless it is too long for the fabric (Blackholed) or injected loss
// takes it (Dropped).
func (f *udpForwarder) stage(ep netip.AddrPort) {
	if len(f.frames[f.staged]) > maxFrame {
		f.rt.Blackholed.Add(1)
		return
	}
	if f.rt.lose() {
		return
	}
	f.eps[f.staged] = ep
	f.staged++
	if f.staged == batchSlots {
		f.flush()
	}
}

// flush sends every staged frame; each one the socket refuses counts in
// Blackholed, as a Forwarder has nobody to return the error to.
func (f *udpForwarder) flush() {
	if f.staged == 0 {
		return
	}
	refused, messages, fellBack := f.out.write(f.frames[:f.staged], f.eps[:f.staged])
	if refused > 0 {
		f.rt.Blackholed.Add(int64(refused))
	}
	if fellBack {
		f.rt.GSOFallbacks.Add(1)
	}
	if m := f.rt.lm.Load(); m != nil {
		m.sent.Add(int64(f.staged - refused))
		m.messages.Add(int64(messages))
	}
	f.staged = 0
}

// SetLossRate makes the fabric drop approximately num/den of data
// datagrams (deterministically interleaved), emulating an unreliable
// underlay. Control frames are subject to the same loss — §III-E's
// control message is soft state and the design must survive losing it.
func (r *Runtime) SetLossRate(num, den int64) {
	if den <= 0 || num < 0 {
		num, den = 0, 1
	}
	r.lossNum.Store(num)
	r.lossDen.Store(den)
}

// lose reports whether injected loss takes the next datagram, counting
// it in Dropped if so: of every `den` consecutive datagrams the first
// `num` are lost. A datagram the fabric drops on purpose is not an error.
func (r *Runtime) lose() bool {
	den, num := r.lossDen.Load(), r.lossNum.Load()
	if num == 0 || den <= 0 || r.lossSeq.Add(1)%den >= num {
		return false
	}
	r.Dropped.Add(1)
	return true
}

// Sink is a destination endpoint: it accepts data frames for one or more
// model addresses and records what it received.
type Sink struct {
	rt   *Runtime
	conn *net.UDPConn
	wg   sync.WaitGroup

	// received is advanced last, inside mu: a reader that has seen a
	// count finds every per-flow figure of those packets behind the lock.
	received atomic.Int64
	// Errors counts datagrams the sink could not take: empty, of an
	// unknown type, unparseable, or cut by its read slot. Control frames
	// are not for sinks and are ignored, not counted.
	Errors atomic.Int64

	mu      sync.Mutex
	byFlow  map[netaddr.FiveTuple]int
	byAddr  map[netaddr.Addr]int
	encaps  int
	labeled int
}

// AddSink opens a sink socket serving the given model addresses.
func (r *Runtime) AddSink(addrs ...netaddr.Addr) (*Sink, error) {
	conn, raw, err := listen()
	if err != nil {
		return nil, fmt.Errorf("live: listen sink: %w", err)
	}
	s := &Sink{
		rt: r, conn: conn,
		byFlow: make(map[netaddr.FiveTuple]int),
		byAddr: make(map[netaddr.Addr]int),
	}
	r.mu.Lock()
	r.register(conn, addrs...)
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
	s.wg.Add(1)
	go s.loop(newReader(conn, raw))
	return s, nil
}

// stop closes the socket, which is what ends the loop's blocked read.
func (s *Sink) stop() {
	_ = s.conn.Close()
	s.wg.Wait()
}

// loop counts what arrives, one batch of datagrams per lock.
func (s *Sink) loop(rd *reader) {
	defer s.wg.Done()
	var pkt packet.Packet // decoded into over and over; nothing keeps it
	for {
		n, err := rd.read()
		if err != nil {
			return // socket closed by stop
		}
		got := 0
		s.mu.Lock()
		for i := range n {
			frame, whole := rd.frame(i)
			if whole && len(frame) > 0 && frame[0] == frameControl {
				continue
			}
			if !whole || len(frame) == 0 || frame[0] != frameData || packet.UnmarshalInto(&pkt, frame[1:]) != nil {
				s.Errors.Add(1)
				continue
			}
			s.byFlow[pkt.FiveTuple()]++
			s.byAddr[pkt.Inner.Dst]++
			if pkt.IsEncapsulated() {
				s.encaps++
			}
			if pkt.Label() != 0 {
				s.labeled++
			}
			got++
		}
		s.received.Add(int64(got))
		s.mu.Unlock()
	}
}

// Received returns the total packets the sink accepted. It takes no lock,
// so a caller polling it does not contend with the sink's loop.
func (s *Sink) Received() int { return int(s.received.Load()) }

// FlowCount returns packets received for one flow tuple.
func (s *Sink) FlowCount(ft netaddr.FiveTuple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byFlow[ft]
}

// Anomalies returns how many received packets were still encapsulated or
// still labeled — both must be zero in a correct deployment.
func (s *Sink) Anomalies() (encapsulated, labeled int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encaps, s.labeled
}

// Inject sends a data packet into the fabric addressed to `via` (usually
// the source subnet's proxy), as a host on the stub network would. Every
// call writes one datagram through the runtime's one injector socket; a
// frame longer than the fabric carries, or a send the socket refuses, is
// counted in Blackholed and returned.
func (r *Runtime) Inject(via netaddr.Addr, pkt *packet.Packet) error {
	ep, ok := r.lookup(via)
	if !ok {
		return fmt.Errorf("live: no endpoint for %v", via)
	}
	in := &r.injector
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return errors.New("live: runtime closed")
	}
	if in.conn == nil {
		conn, _, err := listen()
		if err != nil {
			r.Blackholed.Add(1)
			return fmt.Errorf("live: open injector socket: %w", err)
		}
		in.conn = conn
	}
	in.frame = pkt.AppendMarshal(append(in.frame[:0], frameData))
	if len(in.frame) > maxFrame {
		r.Blackholed.Add(1)
		return fmt.Errorf("live: inject via %v: %d-byte frame exceeds the fabric's %d", via, len(in.frame), maxFrame)
	}
	if r.lose() {
		return nil
	}
	//vet:ignore lockedblocking -- the mutex owns the scratch frame the write reads, and the socket's write lock would queue concurrent injectors anyway
	if _, err := in.conn.WriteToUDPAddrPort(in.frame, ep); err != nil {
		r.Blackholed.Add(1)
		return fmt.Errorf("live: inject via %v: %w", via, err)
	}
	if m := r.lm.Load(); m != nil {
		m.sent.Inc()
		m.messages.Inc()
	}
	return nil
}

// zeros is the payload of every packet Send builds; it is only read.
var zeros [maxFrame]byte

// Send injects one host packet of flow ft via `via` carrying payloadLen
// payload bytes. The wire carries the bytes, not a length: a packet built
// with packet.New alone crosses it as a bare header, while the simulator
// counts HeaderLen+payloadLen bytes for it.
func (r *Runtime) Send(via netaddr.Addr, ft netaddr.FiveTuple, payloadLen int) error {
	pkt := packet.New(ft, payloadLen)
	// A payload this long overruns the frame, and Inject refuses it.
	pkt.Payload = zeros[:min(payloadLen, maxFrame)]
	return r.Inject(via, pkt)
}

// WaitUntil polls cond every millisecond until it returns true or the
// timeout elapses; it reports whether cond became true. Tests and demos
// use it to sequence against network asynchrony.
func WaitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}
