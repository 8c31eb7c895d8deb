package experiments

import (
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/ha"
	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// TestCloseLeavesNoGoroutines: every long-lived component of the live
// substrate stops all of its goroutines on Close. Each case starts one
// with the peers it serves, exercises it, and closes everything; within
// 2 s Close must have returned and runtime.NumGoroutine must be back at
// its count from before the case began.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		// start builds and exercises the component; the func it returns
		// closes it and whatever it was given to serve.
		start func(t *testing.T) (stop func())
	}{
		{"mgmt.Server", func(t *testing.T) func() {
			srv, agent, rt := leakAgent(t)
			// A peer that connects and never says hello.
			mute, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = mute.Close() })
			return func() { srv.Close(); agent.Close(); rt.Close() }
		}},
		{"mgmt.Agent", func(t *testing.T) func() {
			srv, agent, rt := leakAgent(t)
			return func() { agent.Close(); srv.Close(); rt.Close() }
		}},
		{"mgmt.PeerBus", func(t *testing.T) func() {
			got := make(chan struct{}, 1)
			var buses []*mgmt.PeerBus
			addrs := make(map[int]string)
			for id := 0; id < 2; id++ {
				b, err := mgmt.NewPeerBus(id, "127.0.0.1:0", func(*mgmt.Envelope) {
					select {
					case got <- struct{}{}:
					default:
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				buses = append(buses, b)
				addrs[id] = b.Addr()
			}
			for _, b := range buses {
				b.SetPeers(addrs)
			}
			if err := buses[0].Send(1, &mgmt.Envelope{T: "ping", Data: []byte("{}")}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-got:
			case <-time.After(2 * time.Second):
				t.Fatal("envelope not delivered")
			}
			return func() { buses[0].Close(); buses[1].Close() }
		}},
		{"live.Runtime", func(t *testing.T) func() {
			rt, dev := leakDevice(t)
			if _, err := rt.AddSink(topo.HostAddr(2, 1)); err != nil {
				t.Fatal(err)
			}
			if !dev.Do(func(*enforce.Node) {}) {
				t.Fatal("device stopped before Close")
			}
			return rt.Close
		}},
		{"ha.Group", func(t *testing.T) func() {
			const n = 3
			var buses []*mgmt.PeerBus
			addrs := make(map[int]string)
			var g *ha.Group
			ready := make(chan struct{})
			for id := 0; id < n; id++ {
				id := id
				b, err := mgmt.NewPeerBus(id, "127.0.0.1:0", func(env *mgmt.Envelope) {
					<-ready
					g.Replica(id).Deliver(env)
				})
				if err != nil {
					t.Fatal(err)
				}
				buses = append(buses, b)
				addrs[id] = b.Addr()
			}
			for _, b := range buses {
				b.SetPeers(addrs)
			}
			g, err := ha.NewGroup(ha.GroupConfig{
				N: n, Dir: t.TempDir(), LeaseUS: liveLeaseUS, Seed: 1,
				Clock:     ha.WallClock{},
				Transport: func(id int) ha.PeerTransport { return buses[id] },
			})
			if err != nil {
				t.Fatal(err)
			}
			close(ready)
			deadline := time.Now().Add(2 * time.Second)
			for _, ok := g.Leader(); !ok; _, ok = g.Leader() {
				if time.Now().After(deadline) {
					t.Fatal("no leader elected")
				}
				time.Sleep(10 * time.Millisecond)
			}
			return func() {
				g.Close()
				for _, b := range buses {
					b.Close()
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			stop := c.start(t)
			closed := make(chan struct{})
			go func() { stop(); close(closed) }()
			deadline := time.After(2 * time.Second)
			select {
			case <-closed:
			case <-deadline:
				t.Fatalf("Close did not return within 2s:\n%s", goroutineDump())
			}
			for runtime.NumGoroutine() > base {
				select {
				case <-deadline:
					t.Fatalf("%d goroutines 2s after Close, %d before the start:\n%s",
						runtime.NumGoroutine(), base, goroutineDump())
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}

// leakDevice starts a runtime with one proxy device on the campus
// topology.
func leakDevice(t *testing.T) (*live.Runtime, *live.Device) {
	t.Helper()
	g := topo.Campus(topo.CampusConfig{Gateways: 1, CoreRouters: 2, EdgeRouters: 1, WithProxies: true}, rand.New(rand.NewSource(7)))
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	proxyID, ok := dep.ProxyFor(1)
	if !ok {
		t.Fatal("no proxy for subnet 1")
	}
	rt := live.NewRuntime()
	dev, err := rt.AddDevice(enforce.NewProxy(dep, proxyID))
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	return rt, dev
}

// leakAgent connects the agent of a one-device runtime to a fresh
// server.
func leakAgent(t *testing.T) (*mgmt.Server, *mgmt.Agent, *live.Runtime) {
	t.Helper()
	srv, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, dev := leakDevice(t)
	agent, err := mgmt.NewAgent(dev, srv.Addr(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.WaitConnected(2*time.Second, dev.Node.ID) {
		t.Fatal("agent did not connect")
	}
	return srv, agent, rt
}

// goroutineDump returns every goroutine's stack except the caller's.
func goroutineDump() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	_, rest, _ := strings.Cut(string(buf), "\n\n")
	return rest
}
