package live_test

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/packet"
)

// TestLiveDifferentialConformance is the conformance run on real UDP
// sockets: every flow's packets, the later ones label-switched, must walk
// the static plan under both selectors.
func TestLiveDifferentialConformance(t *testing.T) {
	for _, strategy := range []enforce.Strategy{enforce.HotPotato, enforce.LoadBalanced} {
		t.Run(strategy.String(), func(t *testing.T) {
			r, err := experiments.Conform(experiments.Live, experiments.Conformance{
				Topology: "campus", Seed: 2, Strategy: strategy, LabelSwitching: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range r.Mismatches {
				t.Error(m)
			}
			if r.Delivered != r.Sent || r.LabelTx == 0 {
				t.Errorf("delivered %d of %d, %d label-switched", r.Delivered, r.Sent, r.LabelTx)
			}
		})
	}
}

// TestLiveSimMetricNameParity: the sim and live substrates emit the same
// dataplane metric families with the same values (Differential compares
// them series by series), and the families read from the tables at
// exposition carry series on both with nothing synced or woken first.
func TestLiveSimMetricNameParity(t *testing.T) {
	rs, diffs, err := experiments.Differential(experiments.Conformance{
		Topology: "campus", Seed: 3, Strategy: enforce.HotPotato, LabelSwitching: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("sim and live disagree on %s", d)
	}
	for _, r := range rs {
		for _, name := range []string{
			enforce.MetricPacketsIn, enforce.MetricFuncPkts, enforce.MetricFuncBytes, enforce.MetricTx,
			enforce.MetricFlowTableEvents, enforce.MetricFlowShardEntries, enforce.MetricLabelShardEntries,
		} {
			if !bytes.Contains(r.Exposition, []byte("\n"+name+"{")) {
				t.Errorf("%s exposition has no %s series", r.Backend, name)
			}
		}
	}
}

// scraped returns one series' value from a scrape of reg — the text
// /metrics serves — and whether the scrape had the series. series is the
// family name with its labels as the exposition renders them, sorted by
// key.
func scraped(reg *metrics.Registry, series string) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(reg.Snapshot().Text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestLiveFuncBytes: a packet Send builds crosses the wire with its
// payload bytes, so every sdme_func_bytes_total series reads packets ×
// (HeaderLen + payload), the bytes the simulator counts for the same
// packets. A packet with a length and no bytes crosses as a bare header.
func TestLiveFuncBytes(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	const packets, payload = 10, 64
	for i := 0; i < packets; i++ {
		if err := b.rt.Send(b.dep.AddrOf(proxyID), liveFlow(1), payload); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= packets }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), packets)
	}
	want := fmt.Sprint(packets * (packet.HeaderLen + payload))
	series := 0
	sc := bufio.NewScanner(bytes.NewReader(b.reg.Snapshot().Text))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), enforce.MetricFuncBytes+"{") {
			series++
			if _, got, _ := strings.Cut(sc.Text(), " "); got != want {
				t.Errorf("%s, want %s", sc.Text(), want)
			}
		}
	}
	if series != len(b.dep.MBNodes) {
		t.Fatalf("%d %s series, want one per middlebox (%d)", series, enforce.MetricFuncBytes, len(b.dep.MBNodes))
	}
}

// TestLiveSendMessages: beside the datagrams it sent, the fabric counts
// the kernel messages they left in (a UDP GSO message carries several),
// and it reads the GSO fallbacks at exposition: none on loopback.
func TestLiveSendMessages(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	const packets = 50
	for i := range packets {
		if err := b.rt.Send(b.dep.AddrOf(proxyID), liveFlow(uint16(i)), 64); err != nil {
			t.Fatal(err)
		}
	}
	// inject → proxy → FW → IDS → sink: four datagrams a packet. A worker
	// counts after its send returns, which may be after the sink read it.
	sent := func() float64 { v, _ := scraped(b.reg, live.MetricSent); return v }
	if !live.WaitUntil(3*time.Second, func() bool { return sent() == 4*packets }) {
		t.Fatalf("%s = %v, want %d", live.MetricSent, sent(), 4*packets)
	}
	if msgs, _ := scraped(b.reg, live.MetricSendMessages); msgs < packets || msgs > 4*packets {
		t.Errorf("%s = %v for %d datagrams, want between %d and %d", live.MetricSendMessages, msgs, 4*packets, packets, 4*packets)
	}
	if fb, ok := scraped(b.reg, live.MetricGSOFallbacks); !ok || fb != 0 {
		t.Errorf("%s = %v (present: %v), want 0", live.MetricGSOFallbacks, fb, ok)
	}
}

// TestLiveFlowTableEvents reads §III-D's classifications per flow off a
// live device's registry: 20 flows of 3 packets each enter at a proxy,
// so its flow table classifies each flow once (a miss and an insert)
// and looks the other two packets up (hits). The registry reads the
// table's counters when it is scraped; nothing wakes the device first.
func TestLiveFlowTableEvents(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	const flows, perFlow = 20, 3
	for p := 0; p < perFlow; p++ {
		for i := 0; i < flows; i++ {
			if err := b.rt.Inject(proxyAddr, packet.New(liveFlow(uint16(i)), 64)); err != nil {
				t.Fatal(err)
			}
		}
		// Each round lands before the next: its packets hit what the
		// previous round inserted.
		if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= (p+1)*flows }) {
			t.Fatalf("sink received %d of %d", b.sink.Received(), (p+1)*flows)
		}
	}
	event := func(name string) float64 {
		v, _ := scraped(b.reg, fmt.Sprintf(`%s{event=%q,node="%d"}`, enforce.MetricFlowTableEvents, name, proxyID))
		return v
	}
	if event("hit") != flows*(perFlow-1) {
		t.Fatalf("hit = %v, want %d", event("hit"), flows*(perFlow-1))
	}
	if event("miss") != flows || event("inserted") != flows || event("null_hit") != 0 || event("expired") != 0 {
		t.Fatalf("miss/inserted/null_hit/expired = %v/%v/%v/%v, want %d/%d/0/0",
			event("miss"), event("inserted"), event("null_hit"), event("expired"), flows, flows)
	}
	if got := event("miss") / event("inserted"); got != 1 {
		t.Fatalf("classifications per flow = %v, want 1", got)
	}
}

// TestLiveTxGauges reads §III-E's transmissions off a live device's
// registry: after a flow's first packet is tunneled and the rest ride
// labels, the proxy's sdme_node_tx gauges equal its counters, mode by
// mode.
func TestLiveTxGauges(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato, LabelSwitching: true})
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	dev := b.devices[proxyID]

	ft := liveFlow(3)
	if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return dev.Counters().ControlRx >= 1 }) {
		t.Fatalf("control message never arrived: %+v", dev.Counters())
	}
	const more = 6
	for i := 0; i < more; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(ft, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1+more }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), 1+more)
	}
	c := dev.Counters()
	if c.TunnelTx != 1 || c.LabelTx != more {
		t.Fatalf("proxy counters: tunnel=%d label=%d, want 1/%d", c.TunnelTx, c.LabelTx, more)
	}
	tx := func(mode string) float64 {
		v, _ := scraped(b.reg, fmt.Sprintf(`%s{mode=%q,node="%d"}`, enforce.MetricTx, mode, proxyID))
		return v
	}
	if tx("label") != float64(c.LabelTx) || tx("tunnel") != float64(c.TunnelTx) ||
		tx("plain") != float64(c.PlainTx) || tx("control") != float64(c.ControlTx) {
		t.Fatalf("label/tunnel/plain/control gauges %v/%v/%v/%v, counters %d/%d/%d/%d",
			tx("label"), tx("tunnel"), tx("plain"), tx("control"), c.LabelTx, c.TunnelTx, c.PlainTx, c.ControlTx)
	}
}

// TestLiveScrapeNotStale sends N flows through a proxy and then scrapes
// once, with no Do or Counters call, no health probe and no sweep (the
// configuration has no TTL) in between: the scrape must already show the
// proxy's N tunnelled packets and N classifications. A registry that
// holds copies refreshed when the device is woken would read 0 here.
func TestLiveScrapeNotStale(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	proxyAddr := b.dep.AddrOf(proxyID)
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.rt.Inject(proxyAddr, packet.New(liveFlow(uint16(i)), 64)); err != nil {
			t.Fatal(err)
		}
	}
	// The proxy classifies and tunnels a packet before the sink can
	// receive it, so its counts are final once the sink has all n.
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= n }) {
		t.Fatalf("sink received %d of %d", b.sink.Received(), n)
	}
	text := string(b.reg.Snapshot().Text)
	for _, series := range []string{
		fmt.Sprintf(`%s{mode="tunnel",node="%d"} %d`, enforce.MetricTx, proxyID, n),
		fmt.Sprintf(`%s{event="miss",node="%d"} %d`, enforce.MetricFlowTableEvents, proxyID, n),
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("scrape lacks %q:\n%s", series, text)
		}
	}
}

// TestLiveScrapeDuringInstall scrapes in a loop while a middlebox is
// re-installed with new shard tuning, which gives it fresh flow and label
// tables each time; under -race this checks that a read of the tables is
// ordered with Install's replacement of them. The last scrape shows the
// last tuning's shard count.
func TestLiveScrapeDuringInstall(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	mbID := b.dep.MBNodes[0]
	dev := b.devices[mbID]
	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		count := 0
		for {
			select {
			case <-stop:
				scrapes <- count
				return
			default:
				b.reg.Snapshot()
				count++
			}
		}
	}()
	shards := 0
	for i := 0; i < 40; i++ {
		shards = 1 << (i % 4)
		dev.Do(func(n *enforce.Node) {
			n.SetShardTuning(shards, shards)
			if err := n.Install(n.Config()); err != nil {
				t.Error(err)
			}
		})
	}
	close(stop)
	if got := <-scrapes; got == 0 {
		t.Fatal("no scrape ran beside the installs")
	}
	text := string(b.reg.Snapshot().Text)
	for _, fam := range []string{enforce.MetricFlowShardEntries, enforce.MetricLabelShardEntries} {
		if got := strings.Count(text, fmt.Sprintf(`%s{node="%d",`, fam, mbID)); got != shards {
			t.Errorf("%s: %d series for node %d, want %d", fam, got, mbID, shards)
		}
	}
}

// TestLiveScrapeWhileWedged scrapes a registry whose device is wedged: a
// read never waits on a device, so the scrape returns.
func TestLiveScrapeWhileWedged(t *testing.T) {
	b := newLiveBed(t, controller.Options{Strategy: enforce.HotPotato})
	proxyID, _ := b.dep.ProxyFor(1)
	release := b.devices[proxyID].Wedge()
	defer release()
	done := make(chan struct{})
	go func() {
		b.reg.Snapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scrape stalled on a wedged device")
	}
}
