// Package faultinject is the repository's deterministic fault-schedule
// engine — the machinery behind the paper's dependability claim (§III,
// failure handling). A Schedule is a seedable, reproducible script of
// faults (middlebox crash, device wedge and release, management-connection
// drop, controller kills) in one format that drives both execution
// substrates: the discrete-event simulator lands events on its virtual
// clock, the live UDP runtime on wall time. Both accept every kind; the
// comment on each Kind says what each substrate does with it.
//
// Determinism contract: given the same Seed, Resolve always yields the
// same jittered event times in the same order. All randomness comes from
// a private seeded source; the package never touches the global
// math/rand state or the wall clock for decisions.
package faultinject

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdme/internal/topo"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindCrash permanently stops a middlebox/device (live: Device.Stop;
	// sim: Network.SetNodeDown true).
	KindCrash Kind = iota + 1
	// KindWedge blocks a device's loop — alive at the socket, dead at the
	// dataplane — until a matching KindUnwedge (sim: the node is down, as
	// for KindCrash).
	KindWedge
	// KindUnwedge releases a wedged device (sim: SetNodeDown false).
	KindUnwedge
	// KindConnDrop kills a node's management connection mid-stream (live:
	// the agent heals itself by reconnecting; sim has no management
	// channel, so nothing happens).
	KindConnDrop
	// KindLeaderKill takes whichever controller replica currently leads
	// away from its peers (Target is ignored — the leader is resolved at
	// fire time). It has nothing to kill mid-election, or where one
	// unreplicated controller is all there is.
	KindLeaderKill
	// KindControllerRestart kills an unreplicated controller and its
	// management endpoint and brings a new one up from what the journal
	// kept (Target is ignored).
	KindControllerRestart
)

var kindNames = map[Kind]string{
	KindCrash:             "crash",
	KindWedge:             "wedge",
	KindUnwedge:           "unwedge",
	KindConnDrop:          "conn-drop",
	KindLeaderKill:        "leaderkill",
	KindControllerRestart: "ctl-restart",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// AtUS is the nominal offset from schedule start, in microseconds
	// (virtual microseconds under the simulator, wall microseconds live).
	AtUS int64
	// JitterUS widens the firing window: the resolved offset is drawn
	// uniformly from [AtUS, AtUS+JitterUS] by the schedule's seeded RNG.
	JitterUS int64
	Kind     Kind
	Target   topo.NodeID
}

func (e Event) String() string {
	s := fmt.Sprintf("%s %s %d", durationUS(e.AtUS), e.Kind, int(e.Target))
	if e.JitterUS != 0 {
		s += fmt.Sprintf(" jitter=%s", durationUS(e.JitterUS))
	}
	return s
}

func durationUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

// Schedule is a reproducible fault script.
type Schedule struct {
	// Seed drives every jitter draw; the zero schedule (seed 0, no
	// jitter) is fully fixed.
	Seed   int64
	Events []Event
}

// Validate rejects malformed schedules before they are played.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if e.AtUS < 0 || e.JitterUS < 0 {
			return fmt.Errorf("faultinject: event %d: negative time (at=%d jitter=%d)", i, e.AtUS, e.JitterUS)
		}
		if _, ok := kindNames[e.Kind]; !ok {
			return fmt.Errorf("faultinject: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Resolve applies the seeded jitter and returns the events sorted by
// firing time (stable for ties, so same-instant events keep script
// order). The receiver is not modified; Resolve is deterministic for a
// given (Seed, Events) pair.
func (s *Schedule) Resolve() []Event {
	rng := rand.New(rand.NewSource(s.Seed))
	out := make([]Event, len(s.Events))
	for i, e := range s.Events {
		if e.JitterUS > 0 {
			e.AtUS += rng.Int63n(e.JitterUS + 1)
		}
		e.JitterUS = 0
		out[i] = e
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtUS < out[j].AtUS })
	return out
}

// String renders the schedule in the textual format Parse reads.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	for _, e := range s.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Parse reads the textual schedule format, one directive per line:
//
//	# comment
//	seed 42
//	5ms   crash     12
//	20ms  conn-drop 3
//	30ms  wedge     7  jitter=2ms
//	60ms  unwedge   7
//
// The first column is a Go duration (the offset from schedule start),
// the second a fault kind, the third the target node ID. An optional
// jitter=<duration> field widens the firing window.
func Parse(r io.Reader) (*Schedule, error) {
	s := &Schedule{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "seed" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("faultinject: line %d: seed wants one value", lineNo)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: line %d: bad seed %q", lineNo, fields[1])
			}
			s.Seed = v
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("faultinject: line %d: want <at> <kind> <node>", lineNo)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("faultinject: line %d: bad offset %q: %v", lineNo, fields[0], err)
		}
		kind, ok := kindByName[fields[1]]
		if !ok {
			return nil, fmt.Errorf("faultinject: line %d: unknown kind %q", lineNo, fields[1])
		}
		node, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("faultinject: line %d: bad node %q", lineNo, fields[2])
		}
		ev := Event{AtUS: at.Microseconds(), Kind: kind, Target: topo.NodeID(node)}
		for _, f := range fields[3:] {
			k, v, found := strings.Cut(f, "=")
			if !found {
				return nil, fmt.Errorf("faultinject: line %d: bad field %q", lineNo, f)
			}
			switch k {
			case "jitter":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: line %d: bad jitter %q: %v", lineNo, v, err)
				}
				ev.JitterUS = d.Microseconds()
			default:
				return nil, fmt.Errorf("faultinject: line %d: unknown field %q", lineNo, k)
			}
		}
		s.Events = append(s.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustParse parses a schedule literal; it panics on error (tests and
// example scripts).
func MustParse(text string) *Schedule {
	s, err := Parse(strings.NewReader(text))
	if err != nil {
		panic(err)
	}
	return s
}
