package live

// Internal tests for the worker pool: flow→worker affinity, per-flow
// ordering across worker counts, and drained shutdown. They build nodes
// by hand (no controller — the controller package imports live) and ride
// a recording network function installed at the middlebox.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// recorderNF records, per flow, the order in which 4-byte payload
// sequence numbers reached Process — the observation point for the
// per-flow ordering guarantee.
type recorderNF struct {
	mu   sync.Mutex
	seqs map[netaddr.FiveTuple][]uint32
	n    int64
	// lagNS, when set, holds every packet this long between the node
	// counting it as load and the recorder counting it as processed: the
	// window in which an undrained pool shows.
	lagNS atomic.Int64
}

func newRecorderNF() *recorderNF {
	return &recorderNF{seqs: make(map[netaddr.FiveTuple][]uint32)}
}

func (r *recorderNF) Type() policy.FuncType { return policy.FuncIDS }

func (r *recorderNF) Process(p *packet.Packet, _ int64) nf.Verdict {
	if lag := r.lagNS.Load(); lag > 0 {
		time.Sleep(time.Duration(lag))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if len(p.Payload) >= 4 {
		ft := p.FiveTuple()
		r.seqs[ft] = append(r.seqs[ft], binary.BigEndian.Uint32(p.Payload))
	}
	return nf.VerdictPass
}

func (r *recorderNF) Processed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *recorderNF) flowSeqs(ft netaddr.FiveTuple) []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint32(nil), r.seqs[ft]...)
}

// workerBed is a hand-built two-device fabric: one proxy, one middlebox
// running the recorder, one policy sending port-80 traffic through it.
type workerBed struct {
	rt        *Runtime
	proxy, mb *Device
	proxyAddr netaddr.Addr
	rec       *recorderNF
}

func newWorkerBed(t testing.TB, workers int) *workerBed {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := topo.Campus(topo.CampusConfig{Gateways: 1, CoreRouters: 2, EdgeRouters: 1, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	core := g.NodesOfKind(topo.KindCoreRouter)[0]
	dep.AddMiddlebox(core, "rec1", policy.FuncIDS)
	mbID := dep.MBNodes[0]

	rec := newRecorderNF()
	pol := &policy.Policy{ID: 1, Prio: 1, Desc: policy.NewDescriptor(), Actions: policy.ActionList{policy.FuncIDS}}
	pol.Desc.DstPort = netaddr.SinglePort(80)
	cfg := enforce.Config{
		Policies:   []*policy.Policy{pol},
		Candidates: map[policy.FuncType][]topo.NodeID{policy.FuncIDS: {mbID}},
		Strategy:   enforce.HotPotato,
	}

	proxyID, ok := dep.ProxyFor(1)
	if !ok {
		t.Fatal("no proxy for subnet 1")
	}
	proxyNode := enforce.NewProxy(dep, proxyID)
	proxyNode.SetShardTuning(16, 0)
	if err := proxyNode.Install(cfg); err != nil {
		t.Fatal(err)
	}
	mbNode, err := enforce.NewMiddleboxWith(dep, mbID, func(policy.FuncType) (nf.Function, error) {
		return rec, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mbNode.SetShardTuning(16, 0)
	if err := mbNode.Install(cfg); err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime()
	t.Cleanup(rt.Close)
	proxyDev, err := rt.AddDeviceWorkers(proxyNode, workers)
	if err != nil {
		t.Fatal(err)
	}
	mbDev, err := rt.AddDeviceWorkers(mbNode, workers)
	if err != nil {
		t.Fatal(err)
	}
	if got := proxyDev.Workers(); got != workers {
		t.Fatalf("proxy workers = %d, want %d", got, workers)
	}
	return &workerBed{rt: rt, proxy: proxyDev, mb: mbDev, proxyAddr: dep.AddrOf(proxyID), rec: rec}
}

func workerFlow(n uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(1, 200),
		SrcPort: 20000 + n, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
}

func seqPacket(ft netaddr.FiveTuple, seq uint32) *packet.Packet {
	p := packet.New(ft, 4)
	p.Payload = make([]byte, 4)
	binary.BigEndian.PutUint32(p.Payload, seq)
	return p
}

// TestWorkerPoolPerFlowOrdering injects interleaved same-flow datagrams
// from a single producer and asserts every flow's packets reach the
// middlebox function in injection order — at every worker count.
func TestWorkerPoolPerFlowOrdering(t *testing.T) {
	const (
		flows  = 8
		perMsg = 100
	)
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			b := newWorkerBed(t, workers)
			total := int64(flows * perMsg)
			// Inject with backpressure: UDP gives the producer no flow
			// control, so bound the in-flight window below the kernel's
			// socket-buffer datagram capacity to keep the test about
			// ordering, not about loss.
			injected := int64(0)
			for seq := uint32(0); seq < perMsg; seq++ {
				for f := uint16(0); f < flows; f++ {
					if err := b.rt.Inject(b.proxyAddr, seqPacket(workerFlow(f), seq)); err != nil {
						t.Fatal(err)
					}
					injected++
					if injected%64 == 0 {
						lag := injected - 128
						if !WaitUntil(5*time.Second, func() bool { return b.rec.Processed() >= lag }) {
							t.Fatalf("stalled: processed %d, injected %d", b.rec.Processed(), injected)
						}
					}
				}
			}
			if !WaitUntil(5*time.Second, func() bool { return b.rec.Processed() >= total }) {
				t.Fatalf("middlebox processed %d of %d", b.rec.Processed(), total)
			}
			for f := uint16(0); f < flows; f++ {
				got := b.rec.flowSeqs(workerFlow(f))
				if len(got) != perMsg {
					t.Fatalf("flow %d: %d packets recorded, want %d", f, len(got), perMsg)
				}
				for i, s := range got {
					if s != uint32(i) {
						t.Fatalf("flow %d: out of order at %d: got seq %d (full: %v)", f, i, s, got[:i+1])
					}
				}
			}
		})
	}
}

// TestWorkerPoolDrainedShutdown loads every worker queue directly, then
// stops the device: the dispatcher closes the queues and the workers must
// drain every accepted item exactly once before exiting — no drops, no
// double-processing.
func TestWorkerPoolDrainedShutdown(t *testing.T) {
	const (
		flows  = 32
		perMsg = 50
	)
	b := newWorkerBed(t, 4)
	// Bypass the socket: enqueue pooled packets straight onto the worker
	// queues the way dispatch would, so work is provably queued (not just
	// sitting in a kernel buffer) when stop lands.
	for seq := uint32(0); seq < perMsg; seq++ {
		for f := uint16(0); f < flows; f++ {
			ft := workerFlow(f)
			src := seqPacket(ft, seq)
			pkt := packet.Get()
			if err := packet.UnmarshalInto(pkt, src.Marshal()); err != nil {
				t.Fatal(err)
			}
			h := pkt.Inner
			b.proxy.workerFor(h.Src, h.SrcPort, h.DstPort, h.Proto) <- workItem{pkt: pkt}
		}
	}
	b.proxy.stop()
	c := b.proxy.Counters()
	if c.PacketsIn != flows*perMsg {
		t.Fatalf("PacketsIn = %d after drained shutdown, want exactly %d", c.PacketsIn, flows*perMsg)
	}
	// Every packet was forwarded onward exactly once, too.
	if c.TunnelTx != flows*perMsg {
		t.Fatalf("TunnelTx = %d, want %d", c.TunnelTx, flows*perMsg)
	}
}

// TestDoAnswersIdleDevice pins the wake: an idle dispatcher sits in a read
// with no deadline, and a command must interrupt it rather than wait for a
// timer (the loop used to look at its channels every 5 ms).
func TestDoAnswersIdleDevice(t *testing.T) {
	b := newWorkerBed(t, 2)
	const calls = 200
	took := make([]time.Duration, calls)
	for i := range took {
		start := time.Now()
		if !b.mb.Do(func(*enforce.Node) {}) {
			t.Fatal("Do on a running device reported it stopped")
		}
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if median := took[calls/2]; median >= time.Millisecond {
		t.Fatalf("median Do on an idle device took %v, want < 1ms (max %v)", median, took[calls-1])
	}
}

// TestCommandDuringTrafficSeesDrainedPool asserts the quiesce barrier
// under load, not only at shutdown: while packets keep arriving, every
// command must find every frame dispatched before it fully processed —
// the node's load count (taken when a worker picks a packet up) equal to
// the function's own count (taken when it is done with it) — and every
// one of 1,000 commands from four goroutines must return: no wake lost.
func TestCommandDuringTrafficSeesDrainedPool(t *testing.T) {
	b := newWorkerBed(t, 4)
	b.rec.lagNS.Store(int64(20 * time.Microsecond))

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for injected := int64(0); ; injected++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.rt.Inject(b.proxyAddr, seqPacket(workerFlow(uint16(injected%16)), uint32(injected))); err != nil {
				t.Error(err)
				return
			}
			// Keep a bounded window in flight so the kernel drops nothing
			// and the pool is never empty for long.
			if injected%32 == 0 {
				WaitUntil(time.Second, func() bool { return b.rec.Processed() >= injected-128 })
			}
		}
	}()

	const goroutines, each = 4, 250
	var commands sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		commands.Add(1)
		go func(g int) {
			defer commands.Done()
			for i, seen := 0, int64(0); i < each; i++ {
				// Pace the commands to the traffic, so each lands while
				// packets are in the pool.
				for b.rec.Processed() == seen {
					runtime.Gosched()
				}
				seen = b.rec.Processed()
				if (g+i)%5 == 0 {
					// Counters is a Do: the snapshot is of a drained node.
					if c := b.mb.Counters(); c.PacketsIn != c.Load || c.Load != c.PlainTx {
						t.Errorf("Counters under load: in %d, load %d, forwarded %d", c.PacketsIn, c.Load, c.PlainTx)
						return
					}
					continue
				}
				ok := b.mb.Do(func(n *enforce.Node) {
					if load, done := n.CountersSnapshot().Load, b.rec.Processed(); load != done {
						t.Errorf("command ran with %d packets counted as load and %d processed", load, done)
					}
				})
				if !ok {
					t.Error("Do on a running device reported it stopped")
					return
				}
			}
		}(g)
	}
	returned := make(chan struct{})
	go func() { commands.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(60 * time.Second):
		t.Fatal("commands still outstanding after 60 s: a wake was lost")
	}
	close(stop)
	traffic.Wait()
	if b.rec.Processed() == 0 {
		t.Fatal("no traffic reached the middlebox while the commands ran")
	}
}

// TestFlowWorkerHashExcludesDst pins the affinity property the dispatcher
// relies on: rewriting the destination (what label switching does hop by
// hop) must not move a flow to another worker.
func TestFlowWorkerHashExcludesDst(t *testing.T) {
	ft := workerFlow(3)
	h1 := flowWorkerHash(ft.Src, ft.SrcPort, ft.DstPort, ft.Proto)
	ft.Dst = topo.HostAddr(1, 77) // label switching rewrites only Dst
	h2 := flowWorkerHash(ft.Src, ft.SrcPort, ft.DstPort, ft.Proto)
	if h1 != h2 {
		t.Fatal("flow hash depends on Dst; label-switched packets would migrate workers")
	}
	other := workerFlow(4)
	if flowWorkerHash(other.Src, other.SrcPort, other.DstPort, other.Proto) == h1 {
		t.Fatal("distinct flows hash identically (degenerate hash)")
	}
}
