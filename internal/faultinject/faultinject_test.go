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
# acceptance schedule: every kind, two middlebox crashes, a wedge and its release
seed 42
5ms   crash       12
8ms   crash       13  jitter=3ms
20ms  conn-drop   3
30ms  wedge       7
45ms  leaderkill  0
60ms  unwedge     7
70ms  ctl-restart 0
`

func TestParseRoundTrip(t *testing.T) {
	s, err := faultinject.Parse(strings.NewReader(sampleSchedule))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Events) != 7 {
		t.Fatalf("seed=%d events=%d", s.Seed, len(s.Events))
	}
	e := s.Events[1]
	if e.Kind != faultinject.KindCrash || e.Target != topo.NodeID(13) ||
		e.AtUS != 8000 || e.JitterUS != 3000 {
		t.Errorf("event 1 = %+v", e)
	}
	kinds := map[faultinject.Kind]bool{}
	for _, e := range s.Events {
		kinds[e.Kind] = true
	}
	for _, k := range []faultinject.Kind{faultinject.KindCrash, faultinject.KindWedge, faultinject.KindUnwedge,
		faultinject.KindConnDrop, faultinject.KindLeaderKill, faultinject.KindControllerRestart} {
		if !kinds[k] {
			t.Errorf("sample schedule has no %v event", k)
		}
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

// TestParseRejectsMalformed: each bad line is refused with an error naming
// its line, the kinds no substrate stages and the param= field included.
func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"5ms explode 3",        // unknown kind
		"xx crash 3",           // bad duration
		"5ms crash notanode",   // bad node
		"5ms crash 3 what=1",   // unknown field
		"5ms crash 3 jitter=z", // bad jitter
		"seed one",
		"5ms recover 3",
		"5ms partition 3",
		"5ms conn-delay 3",
		"5ms ack-loss 3",
		"5ms conn-drop 3 param=1500",
	} {
		_, err := faultinject.Parse(strings.NewReader("seed 1\n5ms crash 3\n" + bad))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("parse of %q: err = %v, want one naming line 3", bad, err)
		}
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
		// Split the frame across two writes: mgmt's writeMsg writes a frame
		// whole, but Conn must not depend on how a writer cuts its frames.
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
