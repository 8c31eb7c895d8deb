package nf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// refIDS is the IDS as it was written before its scan was prefiltered and
// its port-scan state became one record per source: bytes.Contains per
// signature, a set of ports per source that grows with every packet, and
// a flag per alerted source. The model test holds the IDS to it.
type refIDS struct {
	signatures  []Signature
	alerts      []Alert
	scanPorts   map[netaddr.Addr]map[uint16]struct{}
	scanAlerted map[netaddr.Addr]bool
	maxAlerts   int
}

func newRefIDS(sigs []Signature, maxAlerts int) *refIDS {
	return &refIDS{
		signatures:  sigs,
		scanPorts:   make(map[netaddr.Addr]map[uint16]struct{}),
		scanAlerted: make(map[netaddr.Addr]bool),
		maxAlerts:   maxAlerts,
	}
}

func (s *refIDS) process(pkt *packet.Packet, now int64) {
	ft := pkt.FiveTuple()
	if len(pkt.Payload) > 0 {
		for _, sig := range s.signatures {
			if bytes.Contains(pkt.Payload, sig.Pattern) {
				s.raise(Alert{Signature: sig.Name, Flow: ft, At: now})
			}
		}
	}
	ports := s.scanPorts[ft.Src]
	if ports == nil {
		ports = make(map[uint16]struct{})
		s.scanPorts[ft.Src] = ports
	}
	ports[ft.DstPort] = struct{}{}
	if len(ports) >= portScanThreshold && !s.scanAlerted[ft.Src] {
		s.scanAlerted[ft.Src] = true
		s.raise(Alert{Signature: "port-scan", Flow: ft, At: now})
	}
}

func (s *refIDS) raise(a Alert) {
	if s.maxAlerts <= 0 {
		return
	}
	if len(s.alerts) >= s.maxAlerts {
		s.alerts = s.alerts[1:]
	}
	s.alerts = append(s.alerts, a)
}

// randomPayload draws a payload of 0 to 200 bytes from a small alphabet
// that shares bytes with every default signature, and plants a signature
// (or the start of one) at a random offset now and then.
func randomPayload(rng *rand.Rand) []byte {
	const alphabet = "../ 'UNIONSELECTEICAR-SDMxz\x90"
	b := make([]byte, rng.Intn(201))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	if len(b) > 0 && rng.Intn(3) == 0 {
		pat := DefaultSignatures()[rng.Intn(4)].Pattern
		pat = pat[:1+rng.Intn(len(pat))] // sometimes only a prefix: a near miss
		at := rng.Intn(len(b))
		copy(b[at:], pat)
	}
	return b
}

// TestIDSMatchesReference feeds the IDS and the reference the same random
// stream: port scans of 32 to 60 ports from several sources, repeated
// ports, quiet clients and payloads with planted signatures. The alert
// logs must be equal, at the default bound, a small one and none.
func TestIDSMatchesReference(t *testing.T) {
	for _, maxAlerts := range []int{4096, 7, 0, -1} {
		rng := rand.New(rand.NewSource(int64(40 + maxAlerts)))
		ids := NewIDS(DefaultSignatures())
		ids.MaxAlerts = maxAlerts
		ref := newRefIDS(DefaultSignatures(), maxAlerts)
		type source struct {
			addr  string
			ports []uint16
		}
		var sources []source
		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(5) // a quiet client
			if i%3 == 0 {
				n = portScanThreshold + rng.Intn(29) // a scanner
			}
			base := uint16(rng.Intn(60000))
			s := source{addr: fmt.Sprintf("10.0.%d.%d", i/4, i)}
			for p := 0; p < n; p++ {
				s.ports = append(s.ports, base+uint16(p))
			}
			sources = append(sources, s)
		}
		for step := 0; step < 20000; step++ {
			s := sources[rng.Intn(len(sources))]
			port := s.ports[rng.Intn(len(s.ports))]
			pkt := mkpkt(s.addr, "2.2.2.2", port, randomPayload(rng))
			ids.Process(pkt, int64(step))
			ref.process(pkt, int64(step))
		}
		got := ids.Alerts()
		if !slices.Equal(got, ref.alerts) {
			t.Fatalf("MaxAlerts %d: %d alerts, reference %d; first difference at %d",
				maxAlerts, len(got), len(ref.alerts), firstDiff(got, ref.alerts))
		}
		scans := 0
		for _, a := range got {
			if a.Signature == "port-scan" {
				scans++
			}
		}
		if maxAlerts == 4096 && scans != 4 {
			t.Errorf("%d port-scan alerts, want one per scanner (4)", scans)
		}
	}
}

func firstDiff(a, b []Alert) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestIDSNoAlertLog: MaxAlerts at zero or below keeps no alerts, and a
// packet that would raise one is processed like any other.
func TestIDSNoAlertLog(t *testing.T) {
	for _, limit := range []int{0, -3} {
		ids := NewIDS(DefaultSignatures())
		ids.MaxAlerts = limit
		if v := ids.Process(mkpkt("6.6.6.6", "2.2.2.2", 80, []byte("GET /../../../../etc/passwd")), 1); v != VerdictPass {
			t.Errorf("MaxAlerts %d: verdict %v, want pass", limit, v)
		}
		if n := len(ids.Alerts()); n != 0 || ids.Processed() != 1 {
			t.Errorf("MaxAlerts %d: %d alerts, %d processed; want 0 and 1", limit, n, ids.Processed())
		}
	}
}

// FuzzIDSScan: for any payload and any extra signature, the IDS raises one
// alert per signature that bytes.Contains finds, in signature order.
func FuzzIDSScan(f *testing.F) {
	sigs := DefaultSignatures()
	for n := 0; n <= 200; n += 8 {
		filler := bytes.Repeat([]byte("ab."), n/3+1)[:n]
		f.Add(filler, []byte(nil))
		for _, s := range sigs {
			f.Add(append(slices.Clone(s.Pattern), filler...), []byte(nil)) // at offset 0
			f.Add(append(slices.Clone(filler), s.Pattern...), []byte(nil)) // at the end
		}
	}
	for _, n := range []int{63, 64, 65} {
		f.Add(append(bytes.Repeat([]byte("x"), n-12), "../../../../"...), []byte("x../"))
	}
	// Overlapping signatures: one inside another's tail, a pattern that
	// overlaps itself, and a near miss of the NOP sled.
	f.Add([]byte("../../../../../../EICAR-SDME-TEST' UNION SELECT "), []byte("TEST'"))
	f.Add(bytes.Repeat([]byte{0x90}, 9), []byte{0x90, 0x90})
	f.Add(bytes.Repeat([]byte{0x90}, 7), []byte{0x90, 0x91})
	f.Add([]byte(".../../../.../../../../"), []byte("..."))
	f.Fuzz(func(t *testing.T, payload, extra []byte) {
		all := sigs
		if len(extra) > 0 {
			all = append(slices.Clone(sigs), Signature{Name: "extra", Pattern: extra})
		}
		for _, s := range all {
			if got, want := contains(payload, s.Pattern), bytes.Contains(payload, s.Pattern); got != want {
				t.Fatalf("contains(%q, %q) = %v, bytes.Contains says %v", payload, s.Pattern, got, want)
			}
		}
		ids := NewIDS(all)
		ids.Process(mkpkt("1.1.1.1", "2.2.2.2", 80, payload), 0)
		var want []string
		if len(payload) > 0 {
			for _, s := range all {
				if bytes.Contains(payload, s.Pattern) {
					want = append(want, s.Name)
				}
			}
		}
		var got []string
		for _, a := range ids.Alerts() {
			got = append(got, a.Signature)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("payload %q: alerts %v, want %v", payload, got, want)
		}
	})
}

// TestWebProxyMatchesPayloadModel: over a random request stream, the
// proxy's hit/miss sequence equals that of an LRU keyed by the server,
// the port and the payload bytes themselves, so the 64-bit content hash
// changes no verdict. The payloads include ones that differ only in one
// high bit, only by trailing zero bytes, and in length alone.
func TestWebProxyMatchesPayloadModel(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var payloads [][]byte
	for i := 0; i < 60; i++ {
		b := make([]byte, rng.Intn(201))
		rng.Read(b)
		payloads = append(payloads, b)
		if len(b) > 0 {
			flip := slices.Clone(b)
			flip[rng.Intn(len(flip))] ^= 0x80
			payloads = append(payloads, flip, append(slices.Clone(b), 0), b[:len(b)-1])
		}
	}
	payloads = append(payloads, make([]byte, 8), make([]byte, 16), nil)
	servers := []string{"2.2.2.2", "3.3.3.3"}
	for _, capacity := range []int{4, 32, 256} {
		wp := NewWebProxy(capacity)
		var model []string // most recent first
		for step := 0; step < 20000; step++ {
			srv, port := servers[rng.Intn(2)], uint16(80+rng.Intn(2))
			payload := payloads[rng.Intn(len(payloads))]
			key := fmt.Sprintf("%s:%d/%x", srv, port, payload)
			want := VerdictPass
			if i := slices.Index(model, key); i >= 0 {
				want = VerdictServe
				model = slices.Delete(model, i, i+1)
			}
			model = slices.Insert(model, 0, key)
			if len(model) > capacity {
				model = model[:capacity]
			}
			if v := wp.Process(mkpkt("1.1.1.1", srv, port, payload), 0); v != want {
				t.Fatalf("capacity %d, step %d (%s): verdict %v, want %v", capacity, step, key, v, want)
			}
		}
	}
}

// TestNFConcurrentProcess: 8 goroutines share one instance of each
// function, as a live middlebox's workers do. No packet may be lost from
// any count, and each goroutine's port scan raises exactly one alert.
func TestNFConcurrentProcess(t *testing.T) {
	const workers, perWorker = 8, 2000
	fw, ids, tm, wp := NewFirewall(nil), NewIDS(DefaultSignatures()), NewTrafficMeasure(), NewWebProxy(64)
	var wg sync.WaitGroup
	sizes := make([]uint64, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				pkt := mkpkt(fmt.Sprintf("10.0.0.%d", w+1), "2.2.2.2", uint16(i%(2*portScanThreshold)),
					[]byte(fmt.Sprintf("GET /%d", i%100)))
				sizes[w] += uint64(pkt.Size())
				for _, f := range []Function{fw, ids, tm, wp} {
					f.Process(pkt, int64(i))
				}
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	for _, f := range []Function{fw, ids, tm, wp} {
		if n := f.Processed(); n != total {
			t.Errorf("%v processed %d, want %d", f.Type(), n, total)
		}
	}
	var wantBytes uint64
	for _, s := range sizes {
		wantBytes += s
	}
	if pkts, b := tm.Totals(); pkts != total || b != wantBytes {
		t.Errorf("TM totals %d packets %d bytes, want %d and %d", pkts, b, total, wantBytes)
	}
	if h, m := wp.Hits(), wp.Misses(); h+m != total {
		t.Errorf("WP hits %d + misses %d = %d, want %d", h, m, h+m, total)
	}
	if n := len(ids.Alerts()); n != workers {
		t.Errorf("IDS raised %d alerts, want one port scan per worker (%d)", n, workers)
	}
}

// TestNFSteadyStateAllocFree: once a function has seen a packet's source,
// flow or object, processing it again allocates nothing.
func TestNFSteadyStateAllocFree(t *testing.T) {
	rules := make([]FirewallRule, 8)
	for i := range rules {
		d := policy.NewDescriptor()
		d.DstPort = netaddr.SinglePort(uint16(i + 1000))
		rules[i] = FirewallRule{Desc: d, Action: Deny}
	}
	for _, f := range []Function{NewFirewall(rules), NewIDS(DefaultSignatures()), NewTrafficMeasure(), NewWebProxy(16)} {
		pkt := benchPacket(1, 1400)
		f.Process(pkt, 0)
		if avg := testing.AllocsPerRun(1000, func() { f.Process(pkt, 0) }); avg != 0 {
			t.Errorf("%v: a steady-state Process allocates %.2f objects, want 0", f.Type(), avg)
		}
	}
}

// benchPacket is the bench ladder's packet: a payload of the alphabet
// that names its flow in the first 8 bytes.
func benchPacket(i, size int) *packet.Packet {
	ft := netaddr.FiveTuple{
		Src: netaddr.Addr(0x0a000000 + uint32(i)), Dst: 0x0a640001,
		SrcPort: uint16(1024 + i), DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	p := packet.New(ft, size)
	p.Payload = make([]byte, size)
	for j := range p.Payload {
		p.Payload[j] = byte('a' + j%26)
	}
	binary.LittleEndian.PutUint64(p.Payload, uint64(ft.Src)<<16|uint64(ft.SrcPort))
	return p
}

// BenchmarkNFProcess runs the payload-reading functions and TM over 1024
// flows at the bench ladder's two payload sizes.
func BenchmarkNFProcess(b *testing.B) {
	for _, ft := range []policy.FuncType{policy.FuncIDS, policy.FuncWP, policy.FuncTM} {
		for _, size := range []int{64, 1400} {
			b.Run(fmt.Sprintf("%s/%d", strings.ToLower(ft.String()), size), func(b *testing.B) {
				f, err := New(ft)
				if err != nil {
					b.Fatal(err)
				}
				pkts := make([]*packet.Packet, 1024)
				for i := range pkts {
					pkts[i] = benchPacket(i, size)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Process(pkts[i%len(pkts)], int64(i))
				}
			})
		}
	}
}
