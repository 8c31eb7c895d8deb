package faultinject_test

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdme/internal/faultinject"
	"sdme/internal/topo"
)

const sampleSchedule = `
# acceptance schedule: two middlebox crashes, one mgmt conn drop, one wedge
seed 42
5ms   crash     12
8ms   crash     13  jitter=3ms
20ms  conn-drop 3
30ms  wedge     7
45ms  conn-delay 3 param=1500
60ms  unwedge   7
`

func TestParseRoundTrip(t *testing.T) {
	s, err := faultinject.Parse(strings.NewReader(sampleSchedule))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Events) != 6 {
		t.Fatalf("seed=%d events=%d", s.Seed, len(s.Events))
	}
	e := s.Events[1]
	if e.Kind != faultinject.KindCrash || e.Target != topo.NodeID(13) ||
		e.AtUS != 8000 || e.JitterUS != 3000 {
		t.Errorf("event 1 = %+v", e)
	}
	if s.Events[4].Param != 1500 {
		t.Errorf("conn-delay param = %d", s.Events[4].Param)
	}
	// String() re-parses to the same schedule.
	back, err := faultinject.Parse(strings.NewReader(s.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.String())
	}
	if back.Seed != s.Seed || !reflect.DeepEqual(back.Events, s.Events) {
		t.Errorf("round trip changed schedule:\n%+v\n%+v", s.Events, back.Events)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"5ms explode 3",        // unknown kind
		"xx crash 3",           // bad duration
		"5ms crash notanode",   // bad node
		"5ms crash 3 what=1",   // unknown field
		"5ms ack-loss 3",       // ack-loss without frame count
		"5ms crash 3 jitter=z", // bad jitter
		"seed one\n5ms crash 3",
		"5ms partition 3 param=3", // partition with itself
	} {
		if _, err := faultinject.Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parse accepted %q", bad)
		}
	}
}

func TestParsePartition(t *testing.T) {
	s, err := faultinject.Parse(strings.NewReader(`
seed 7
10ms partition 3 param=12
40ms partition 3 param=12 jitter=5ms
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("events = %d", len(s.Events))
	}
	e := s.Events[0]
	if e.Kind != faultinject.KindPartition || e.Target != topo.NodeID(3) || e.Param != 12 {
		t.Errorf("partition event = %+v", e)
	}
	// Round-trips through the same text format as every other kind.
	back, err := faultinject.Parse(strings.NewReader(s.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s.String())
	}
	if !reflect.DeepEqual(back.Events, s.Events) {
		t.Errorf("round trip changed schedule:\n%+v\n%+v", s.Events, back.Events)
	}
}

func TestResolveDeterministicAndSorted(t *testing.T) {
	s := faultinject.MustParse(sampleSchedule)
	a := s.Resolve()
	b := s.Resolve()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed resolved differently:\n%v\n%v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i].AtUS < a[i-1].AtUS {
			t.Fatalf("resolved events unsorted: %v", a)
		}
	}
	// Jitter stays within the declared window.
	for i, e := range a {
		if e.JitterUS != 0 {
			t.Errorf("resolved event %d still carries jitter", i)
		}
	}
	s2 := *s
	s2.Seed = 43
	if reflect.DeepEqual(s2.Resolve(), a) {
		// With a 3ms jitter window, two seeds agreeing exactly is ~0.03%;
		// treat it as a wiring bug (seed ignored).
		t.Error("different seeds produced identical jitter")
	}
}

// fakeEngine records scheduled delays in FIFO order, standing in for
// sim.Engine.
type fakeEngine struct {
	delays []int64
	fns    []func()
}

func (f *fakeEngine) After(delay int64, fn func()) {
	f.delays = append(f.delays, delay)
	f.fns = append(f.fns, fn)
}

func TestDriveSimSchedulesResolvedTimes(t *testing.T) {
	s := faultinject.MustParse("seed 7\n1ms crash 1\n2ms crash 2 jitter=1ms\n")
	eng := &fakeEngine{}
	var applied []faultinject.Event
	faultinject.DriveSim(s, eng, func(e faultinject.Event) { applied = append(applied, e) })
	want := s.Resolve()
	if len(eng.delays) != len(want) {
		t.Fatalf("scheduled %d events, want %d", len(eng.delays), len(want))
	}
	for i := range want {
		if eng.delays[i] != want[i].AtUS {
			t.Errorf("event %d scheduled at %d, want %d", i, eng.delays[i], want[i].AtUS)
		}
		eng.fns[i]()
	}
	if !reflect.DeepEqual(applied, want) {
		t.Errorf("applied %v, want %v", applied, want)
	}
}

func TestLiveDriverFiresInOrderAndStops(t *testing.T) {
	s := faultinject.MustParse("1ms crash 1\n2ms crash 2\n3ms wedge 3\n")
	var got []topo.NodeID
	done := make(chan struct{})
	d := faultinject.NewLiveDriver(s, func(e faultinject.Event) {
		got = append(got, e.Target) // single goroutine: no lock needed
		if len(got) == 3 {
			close(done)
		}
	})
	d.Start()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("live driver never finished")
	}
	d.Wait()
	want := []topo.NodeID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if d.Applied() != 3 {
		t.Errorf("Applied = %d", d.Applied())
	}
	d.Stop() // after completion: must not hang
}

func TestLiveDriverStopCancelsRest(t *testing.T) {
	s := faultinject.MustParse("1ms crash 1\n10s crash 2\n")
	fired := make(chan topo.NodeID, 2)
	d := faultinject.NewLiveDriver(s, func(e faultinject.Event) { fired <- e.Target })
	d.Start()
	select {
	case id := <-fired:
		if id != 1 {
			t.Fatalf("first event = %v", id)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("first event never fired")
	}
	d.Stop()
	if d.Applied() != 1 {
		t.Errorf("Applied after stop = %d", d.Applied())
	}
}

// pipeFrames writes framed messages through a fault Conn and returns what
// the reader side actually received, as frame payload strings.
func pipeFrames(t *testing.T, setup func(*faultinject.Conn), payloads []string) []string {
	t.Helper()
	client, server := net.Pipe()
	fc := faultinject.WrapConn(client)
	setup(fc)

	recvDone := make(chan []string, 1)
	go func() {
		var got []string
		buf := make([]byte, 4)
		for {
			if _, err := readFull(server, buf); err != nil {
				recvDone <- got
				return
			}
			n := int(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
			body := make([]byte, n)
			if _, err := readFull(server, body); err != nil {
				recvDone <- got
				return
			}
			got = append(got, string(body))
		}
	}()

	for _, p := range payloads {
		hdr := []byte{0, 0, 0, byte(len(p))}
		// Split the frame across two writes, like mgmt's writeMsg does.
		if _, err := fc.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := fc.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	_ = fc.Close()
	select {
	case got := <-recvDone:
		return got
	case <-time.After(3 * time.Second):
		t.Fatal("reader never finished")
		return nil
	}
}

func readFull(c net.Conn, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := c.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestConnDropsWholeFramesOnly(t *testing.T) {
	got := pipeFrames(t, func(c *faultinject.Conn) { c.DropFrames(2) },
		[]string{"aa", "bb", "cc", "dd"})
	want := []string{"cc", "dd"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("received %v, want %v (frame loss must not tear the stream)", got, want)
	}
}

// AfterFrames places a fault at an exact point of the conversation: the
// frames before it are delivered whole, the fault fires once.
func TestConnAfterFramesFiresOnceAtTheFrame(t *testing.T) {
	fired := 0
	got := pipeFrames(t, func(c *faultinject.Conn) {
		c.AfterFrames(2, func(c *faultinject.Conn) {
			fired++
			c.DropFrames(1) // the third frame vanishes
		})
	}, []string{"aa", "bb", "cc", "dd"})
	if want := []string{"aa", "bb", "dd"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	if fired != 1 {
		t.Errorf("fault fired %d times, want once", fired)
	}

	got = pipeFrames(t, func(c *faultinject.Conn) { c.AfterFrames(1, (*faultinject.Conn).DropNow) },
		[]string{"aa"})
	if want := []string{"aa"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frame before the drop: received %v, want %v", got, want)
	}
}

func TestConnPassThrough(t *testing.T) {
	got := pipeFrames(t, func(*faultinject.Conn) {}, []string{"xy", "z"})
	if !reflect.DeepEqual(got, []string{"xy", "z"}) {
		t.Fatalf("received %v", got)
	}
}

func TestConnDropNowSeversBothDirections(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	fc := faultinject.WrapConn(client)
	fc.DropNow()
	if _, err := fc.Write([]byte{0, 0, 0, 1, 'x'}); err == nil {
		t.Error("write succeeded on a dropped conn")
	}
	buf := make([]byte, 1)
	if _, err := fc.Read(buf); err == nil {
		t.Error("read succeeded on a dropped conn")
	}
}

func TestConnTapCarriesDirectivesAcrossDials(t *testing.T) {
	tap := &faultinject.ConnTap{}
	tap.DropFrames(1) // directive set before any connection exists
	var serverEnds []net.Conn
	dial := tap.Dial(func() (net.Conn, error) {
		c, s := net.Pipe()
		serverEnds = append(serverEnds, s)
		return c, nil
	})
	c1, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	// The pre-dial drop directive landed on the first connection: its
	// first frame vanishes, the second arrives.
	go func() {
		_, _ = c1.Write([]byte{0, 0, 0, 1, 'a'})
		_, _ = c1.Write([]byte{0, 0, 0, 1, 'b'})
	}()
	buf := make([]byte, 5)
	if err := serverEnds[0].SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFull(serverEnds[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[4] != 'b' {
		t.Errorf("first delivered frame = %q, want b", buf[4])
	}
	if !tap.DropConn() {
		t.Error("DropConn found no current conn")
	}
	if _, err := dial(); err != nil {
		t.Fatal(err)
	}
	if tap.Dials() != 2 {
		t.Errorf("Dials = %d", tap.Dials())
	}
}
