package sim

import (
	"fmt"

	"sdme/internal/controller"
	"sdme/internal/ha"
	"sdme/internal/mgmt"
)

// ControllerGroup hosts an ha.Group (DESIGN §11) on the engine's virtual
// clock: election timeouts, heartbeats, and journal-frame deliveries are
// all engine events, so a whole takeover history — leader kill, election,
// catch-up, fenced resumption — is a deterministic function of the seed.
// Peer envelopes travel with a fixed virtual latency and are silently
// lost to dead or partitioned endpoints, which is exactly the loss model
// the lease protocol is built to tolerate.

// ControllerGroupConfig sizes a replica group.
type ControllerGroupConfig struct {
	// N is the replica count (default 3).
	N int
	// Dir holds the per-replica journal files.
	Dir string
	// LeaseUS is the election lease in virtual µs (default per
	// ha.ElectorConfig).
	LeaseUS int64
	// Seed drives every replica's election jitter.
	Seed int64
	// OnPromote/OnDemote are the harness hooks, running synchronously
	// inside the engine event that resolved the election.
	OnPromote func(id int, st *controller.JournalState, j *controller.Journal, term uint64)
	OnDemote  func(id int, term uint64)
}

// peerDelayUS is the one-way peer envelope latency.
const peerDelayUS = 200

// ControllerGroup is the sim-side host of an ha.Group.
type ControllerGroup struct {
	*ha.Group
	eng     *Engine
	leaseUS int64
	cut     map[[2]int]bool
}

// NewControllerGroup builds and starts N replicas, all standby; run the
// engine to let the first election resolve.
func NewControllerGroup(eng *Engine, cfg ControllerGroupConfig) (*ControllerGroup, error) {
	if cfg.N <= 0 {
		cfg.N = 3
	}
	g := &ControllerGroup{eng: eng, leaseUS: cfg.LeaseUS, cut: make(map[[2]int]bool)}
	var err error
	g.Group, err = ha.NewGroup(ha.GroupConfig{
		N:         cfg.N,
		Dir:       cfg.Dir,
		LeaseUS:   cfg.LeaseUS,
		Seed:      cfg.Seed,
		Clock:     simClock{eng: eng},
		Transport: func(id int) ha.PeerTransport { return groupTransport{g: g, from: id} },
		OnPromote: cfg.OnPromote,
		OnDemote:  cfg.OnDemote,
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// SetPartitioned severs (or heals) the pair's peer link, both ways.
func (g *ControllerGroup) SetPartitioned(a, b int, cut bool) {
	g.cut[pairKey(a, b)] = cut
}

// RunUntilLeader advances the engine until some live replica leads (and,
// when minTerm > 0, at a term >= minTerm — takeover, not the old
// incumbent), returning the leader and the virtual time it was observed.
// id -1 means the limit passed first.
func (g *ControllerGroup) RunUntilLeader(limitUS int64, minTerm uint64) (id int, term uint64, atUS int64) {
	step := g.leaseUS
	if step <= 0 {
		step = 150_000
	}
	step /= 10
	if step <= 0 {
		step = 1
	}
	// Walk a cursor, not eng.Now(): Run only advances the clock to the
	// last processed event, so an empty step must still move the cursor.
	cursor := g.eng.Now()
	for {
		if p, ok := g.Leader(); ok && p.Term >= minTerm {
			return p.ID, p.Term, g.eng.Now()
		}
		if cursor >= limitUS {
			return -1, 0, g.eng.Now()
		}
		cursor += step
		g.eng.Run(cursor)
	}
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// groupTransport carries one replica's peer envelopes through the
// engine queue.
type groupTransport struct {
	g    *ControllerGroup
	from int
}

// lost reports whether the link between the two replicas drops
// everything right now.
func (t groupTransport) lost(to int) bool {
	return !t.g.Alive(t.from) || !t.g.Alive(to) || t.g.cut[pairKey(t.from, to)]
}

func (t groupTransport) Send(to int, env *mgmt.Envelope) error {
	g := t.g
	if to < 0 || to >= g.N() {
		return fmt.Errorf("sim: no replica %d", to)
	}
	if t.lost(to) {
		return nil // silently lost; the protocols retry by timeout
	}
	// Copy the payload: the engine delivers later and the sender may
	// reuse its buffer.
	e := &mgmt.Envelope{T: env.T, Data: append([]byte(nil), env.Data...)}
	g.eng.After(peerDelayUS, func() {
		if !t.lost(to) {
			g.Replica(to).Deliver(e)
		}
	})
	return nil
}

// simClock adapts the engine to ha.ElectionClock. Cancellation is a flag
// check at fire time — the engine has no event removal, and the elector
// revalidates state in every callback anyway.
type simClock struct{ eng *Engine }

func (c simClock) NowUS() int64 { return c.eng.Now() }

func (c simClock) AfterUS(delayUS int64, fn func()) func() {
	cancelled := false
	c.eng.After(delayUS, func() {
		if !cancelled {
			fn()
		}
	})
	return func() { cancelled = true }
}
