// Package faultinject is the repository's deterministic fault-schedule
// engine — the machinery behind the paper's dependability claim (§III,
// failure handling). A Schedule is a seedable, reproducible script of
// faults (middlebox crash/recover, device wedge, management-connection
// drop/delay/ack-loss, controller kills) in one format that drives both
// execution substrates: the discrete-event simulator (events land on the
// virtual clock via a Scheduler) and the live UDP runtime (events land on
// wall timers via a Driver). Each substrate stages the kinds it can — the
// simulator has no management channel, and the live runtime cannot bring
// a stopped device back — as the comment on each Kind says; for the kinds
// both stage, one schedule tells the same failure story in simulation and
// over real sockets.
//
// Determinism contract: given the same Seed, Resolve always yields the
// same jittered event times in the same order. All randomness comes from
// a private seeded source; the package never touches the global
// math/rand state or the wall clock for decisions (wall timers only fire
// the pre-resolved times).
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
	// KindRecover brings a crashed/down node back (sim: SetNodeDown
	// false; the live substrate refuses it, as a stopped device's socket
	// cannot be resurrected).
	KindRecover
	// KindWedge blocks a device's loop — alive at the socket, dead at the
	// dataplane — until a matching KindUnwedge.
	KindWedge
	// KindUnwedge releases a wedged device.
	KindUnwedge
	// KindConnDrop kills a node's management connection mid-stream (the
	// agent is expected to heal itself by reconnecting; sim ignores it, as
	// it has no management channel).
	KindConnDrop
	// KindConnDelay imposes Param microseconds of delay on each frame the
	// node's fault-wrapped management connection writes (Conn; sim ignores
	// it and the live substrate, whose connections are not wrapped,
	// refuses it).
	KindConnDelay
	// KindAckLoss discards the next Param frames written on the node's
	// fault-wrapped management connection (acks and measurement reports;
	// as for KindConnDelay, sim ignores it and the live substrate refuses
	// it).
	KindAckLoss
	// KindPartition severs both directions between a node pair: Target and
	// the peer named by Param each lose their connection to the other
	// (live: both management conns dropped, and the agents' reconnects
	// heal it; sim ignores it, as it has no management channel).
	KindPartition
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
	KindRecover:           "recover",
	KindWedge:             "wedge",
	KindUnwedge:           "unwedge",
	KindConnDrop:          "conn-drop",
	KindConnDelay:         "conn-delay",
	KindAckLoss:           "ack-loss",
	KindPartition:         "partition",
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
	// Param carries the kind-specific argument: delay µs for
	// KindConnDelay, frame count for KindAckLoss, the peer node ID for
	// KindPartition.
	Param int64
}

func (e Event) String() string {
	s := fmt.Sprintf("%s %s %d", durationUS(e.AtUS), e.Kind, int(e.Target))
	if e.Param != 0 {
		s += fmt.Sprintf(" param=%d", e.Param)
	}
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

// Validate rejects malformed schedules before they reach a driver.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if e.AtUS < 0 || e.JitterUS < 0 {
			return fmt.Errorf("faultinject: event %d: negative time (at=%d jitter=%d)", i, e.AtUS, e.JitterUS)
		}
		if _, ok := kindNames[e.Kind]; !ok {
			return fmt.Errorf("faultinject: event %d: unknown kind %d", i, int(e.Kind))
		}
		switch e.Kind {
		case KindConnDelay:
			if e.Param < 0 {
				return fmt.Errorf("faultinject: event %d: conn-delay needs param >= 0", i)
			}
		case KindAckLoss:
			if e.Param <= 0 {
				return fmt.Errorf("faultinject: event %d: ack-loss needs param > 0 (frames to drop)", i)
			}
		case KindPartition:
			if e.Param < 0 {
				return fmt.Errorf("faultinject: event %d: partition needs param = peer node id", i)
			}
			if e.Param == int64(e.Target) {
				return fmt.Errorf("faultinject: event %d: partition peer equals target %d", i, int(e.Target))
			}
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
//	45ms  conn-delay 3 param=1500
//	60ms  unwedge   7
//
// The first column is a Go duration (the offset from schedule start),
// the second a fault kind, the third the target node ID. Optional
// key=value fields set jitter (duration) and param (integer).
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
			case "param":
				p, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: line %d: bad param %q", lineNo, v)
				}
				ev.Param = p
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
