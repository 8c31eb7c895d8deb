package sim

import (
	"fmt"
	"path/filepath"

	"sdme/internal/controller"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
)

// ControllerGroup hosts N replicated-controller replicas (DESIGN §11)
// on the engine's virtual clock: election timeouts, heartbeats, and
// journal-frame deliveries are all engine events, so a whole takeover
// history — leader kill, election, catch-up, fenced resumption — is a
// deterministic function of the seed. Peer envelopes travel with a
// fixed virtual latency and are silently lost to dead or partitioned
// endpoints, which is exactly the loss model the lease protocol is
// built to tolerate.

// Promotion records one leadership win, for takeover traces and the
// at-most-one-leader-per-term property test.
type Promotion struct {
	ID   int
	Term uint64
	AtUS int64
}

// ControllerGroupConfig sizes a replica group.
type ControllerGroupConfig struct {
	// N is the replica count (default 3).
	N int
	// Dir holds the per-replica journal files (replica-<id>.wal).
	Dir string
	// LeaseUS is the election lease in virtual µs (default per
	// controller.ElectorConfig).
	LeaseUS int64
	// Seed drives every replica's election jitter; replica i draws from
	// seed Seed*1009 + i + 1 so groups with different seeds diverge.
	Seed int64
	// DelayUS is the one-way peer envelope latency (default 200 µs).
	DelayUS int64
	// Quorum for both election and replication; 0 = majority.
	Quorum  int
	Metrics *metrics.Registry
	// OnPromote/OnDemote are the harness hooks, running synchronously
	// inside the engine event that resolved the election.
	OnPromote func(id int, st *controller.JournalState, j *controller.Journal, term uint64)
	OnDemote  func(id int, term uint64)
}

func (c *ControllerGroupConfig) fill() {
	if c.N <= 0 {
		c.N = 3
	}
	if c.DelayUS <= 0 {
		c.DelayUS = 200
	}
}

// ControllerGroup is the sim-side host of N HAReplicas.
type ControllerGroup struct {
	eng      *Engine
	cfg      ControllerGroupConfig
	replicas []*controller.HAReplica
	dead     []bool
	cut      map[[2]int]bool

	promotions []Promotion
}

// NewControllerGroup builds and starts N replicas, all standby; run the
// engine to let the first election resolve.
func NewControllerGroup(eng *Engine, cfg ControllerGroupConfig) (*ControllerGroup, error) {
	cfg.fill()
	g := &ControllerGroup{
		eng:  eng,
		cfg:  cfg,
		dead: make([]bool, cfg.N),
		cut:  make(map[[2]int]bool),
	}
	for id := 0; id < cfg.N; id++ {
		peers := make([]int, 0, cfg.N-1)
		for p := 0; p < cfg.N; p++ {
			if p != id {
				peers = append(peers, p)
			}
		}
		id := id
		ha, err := controller.NewHAReplica(controller.HAReplicaConfig{
			ID:          id,
			Peers:       peers,
			Quorum:      cfg.Quorum,
			JournalPath: filepath.Join(cfg.Dir, fmt.Sprintf("replica-%d.wal", id)),
			Transport:   groupTransport{g: g, from: id},
			LeaseUS:     cfg.LeaseUS,
			Seed:        cfg.Seed*1009 + int64(id) + 1,
			Clock:       simClock{eng: eng},
			Metrics:     cfg.Metrics,
			OnPromote: func(st *controller.JournalState, j *controller.Journal, term uint64) {
				g.promotions = append(g.promotions, Promotion{ID: id, Term: term, AtUS: eng.Now()})
				if cfg.OnPromote != nil {
					cfg.OnPromote(id, st, j, term)
				}
			},
			OnDemote: func(term uint64) {
				if cfg.OnDemote != nil {
					cfg.OnDemote(id, term)
				}
			},
		})
		if err != nil {
			for _, prev := range g.replicas {
				prev.Stop()
			}
			return nil, err
		}
		g.replicas = append(g.replicas, ha)
	}
	for _, ha := range g.replicas {
		ha.Start()
	}
	return g, nil
}

// Replica returns one replica's HAReplica.
func (g *ControllerGroup) Replica(id int) *controller.HAReplica { return g.replicas[id] }

// N returns the replica count.
func (g *ControllerGroup) N() int { return len(g.replicas) }

// Alive reports whether a replica has not been killed.
func (g *ControllerGroup) Alive(id int) bool { return !g.dead[id] }

// Promotions returns every leadership win so far, in virtual-time order.
func (g *ControllerGroup) Promotions() []Promotion {
	return append([]Promotion(nil), g.promotions...)
}

// Kill crashes a replica: its elector stops, its journals close, and
// every envelope to or from it is dropped from now on.
func (g *ControllerGroup) Kill(id int) {
	if g.dead[id] {
		return
	}
	g.dead[id] = true
	g.replicas[id].Stop()
}

// SetPartitioned severs (or heals) the pair's peer link, both ways.
func (g *ControllerGroup) SetPartitioned(a, b int, cut bool) {
	g.cut[pairKey(a, b)] = cut
}

// Leader returns the live replica currently in the leader role with the
// highest term, or (-1, 0) when none leads.
func (g *ControllerGroup) Leader() (id int, term uint64) {
	id = -1
	for i, ha := range g.replicas {
		if g.dead[i] {
			continue
		}
		e := ha.Elector()
		if e.Role() == controller.RoleLeader && e.Term() >= term {
			id, term = i, e.Term()
		}
	}
	return id, term
}

// RunUntilLeader advances the engine until some live replica leads (and,
// when minTerm > 0, at a term >= minTerm — takeover, not the old
// incumbent), returning the leader and the virtual time it was observed.
// id -1 means the limit passed first.
func (g *ControllerGroup) RunUntilLeader(limitUS int64, minTerm uint64) (id int, term uint64, atUS int64) {
	step := g.cfg.LeaseUS
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
		if id, term = g.Leader(); id >= 0 && term >= minTerm {
			return id, term, g.eng.Now()
		}
		if cursor >= limitUS {
			return -1, 0, g.eng.Now()
		}
		cursor += step
		g.eng.Run(cursor)
	}
}

// Close stops every replica.
func (g *ControllerGroup) Close() {
	for id := range g.replicas {
		g.Kill(id)
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

func (t groupTransport) Send(to int, env *mgmt.Envelope) error {
	g := t.g
	if to < 0 || to >= len(g.replicas) {
		return fmt.Errorf("sim: no replica %d", to)
	}
	if g.dead[t.from] || g.dead[to] || g.cut[pairKey(t.from, to)] {
		return nil // silently lost; the protocols retry by timeout
	}
	// Copy the payload: the engine delivers later and the sender may
	// reuse its buffer.
	e := &mgmt.Envelope{T: env.T, Data: append([]byte(nil), env.Data...)}
	from := t.from
	g.eng.After(g.cfg.DelayUS, func() {
		if g.dead[to] || g.dead[from] || g.cut[pairKey(from, to)] {
			return
		}
		g.replicas[to].Deliver(e)
	})
	return nil
}

// simClock adapts the engine to controller.ElectionClock. Cancellation
// is a flag check at fire time — the engine has no event removal, and
// the elector revalidates state in every callback anyway.
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
