package ha

import (
	"fmt"
	"path/filepath"
	"sync"

	"sdme/internal/controller"
	"sdme/internal/metrics"
)

// Promotion records one leadership win, for takeover traces and the
// at-most-one-leader-per-term property test.
type Promotion struct {
	ID   int
	Term uint64
	AtUS int64
}

// GroupConfig sizes a replica group and plugs it into its substrate.
type GroupConfig struct {
	// N is the replica count.
	N int
	// Dir holds the per-replica journal files (replica-<id>.wal).
	Dir string
	// LeaseUS is the election lease on Clock's time.
	LeaseUS int64
	// Seed drives every replica's election jitter; replica i draws from
	// seed Seed*1009 + i + 1 so groups with different seeds diverge.
	Seed  int64
	Clock ElectionClock
	// Transport returns replica id's sender; what it sends reaches the
	// addressee through Replica(to).Deliver.
	Transport func(id int) PeerTransport
	// OnPromote/OnDemote are the harness hooks (see ReplicaConfig); a
	// promotion enters the trace, and Leader, once OnPromote has returned.
	OnPromote func(id int, st *controller.JournalState, j *controller.Journal, term uint64)
	OnDemote  func(id int, term uint64)
}

// Group is N replicas of the controller on one clock, each over its own
// transport, with the bookkeeping every harness needs: who leads, who won
// when, who was killed. Its registry, stamped by the same clock, carries
// the election and replication metric families of all N.
type Group struct {
	replicas []*Replica
	reg      *metrics.Registry

	// mu guards the rest: the hooks fire on whatever goroutine resolved
	// the election.
	mu         sync.Mutex
	promotions []Promotion
	leading    map[int]Promotion // replica → the win it still leads by
	dead       map[int]bool
}

// NewGroup builds and starts N replicas, all standby; let the clock run
// for the first election to resolve.
func NewGroup(cfg GroupConfig) (*Group, error) {
	g := &Group{
		reg:     metrics.NewRegistry(cfg.Clock.NowUS),
		leading: make(map[int]Promotion),
		dead:    make(map[int]bool),
	}
	for id := 0; id < cfg.N; id++ {
		var peers []int
		for p := 0; p < cfg.N; p++ {
			if p != id {
				peers = append(peers, p)
			}
		}
		id := id
		r, err := NewReplica(ReplicaConfig{
			ID:          id,
			Peers:       peers,
			JournalPath: filepath.Join(cfg.Dir, fmt.Sprintf("replica-%d.wal", id)),
			Transport:   cfg.Transport(id),
			LeaseUS:     cfg.LeaseUS,
			Seed:        cfg.Seed*1009 + int64(id) + 1,
			Clock:       cfg.Clock,
			Metrics:     g.reg,
			OnPromote: func(st *controller.JournalState, j *controller.Journal, term uint64) {
				if cfg.OnPromote != nil {
					cfg.OnPromote(id, st, j, term)
				}
				g.mu.Lock()
				defer g.mu.Unlock()
				g.leading[id] = Promotion{ID: id, Term: term, AtUS: cfg.Clock.NowUS()}
				g.promotions = append(g.promotions, g.leading[id])
			},
			OnDemote: func(term uint64) {
				g.mu.Lock()
				delete(g.leading, id)
				g.mu.Unlock()
				if cfg.OnDemote != nil {
					cfg.OnDemote(id, term)
				}
			},
		})
		if err != nil {
			g.Close()
			return nil, err
		}
		g.replicas = append(g.replicas, r)
	}
	for _, r := range g.replicas {
		r.Start()
	}
	return g, nil
}

// Replica returns one member.
func (g *Group) Replica(id int) *Replica { return g.replicas[id] }

// N returns the replica count.
func (g *Group) N() int { return len(g.replicas) }

// Metrics returns the registry the group's replicas report to.
func (g *Group) Metrics() *metrics.Registry { return g.reg }

// Alive reports whether a replica has not been killed.
func (g *Group) Alive(id int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.dead[id]
}

// Promotions returns every leadership win so far, in order.
func (g *Group) Promotions() []Promotion {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Promotion(nil), g.promotions...)
}

// Leader returns the win of the live replica leading at the highest term
// (ok false: none leads). A replica cut off from its peers still counts
// until its lease starves and it deposes itself.
func (g *Group) Leader() (p Promotion, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, win := range g.leading {
		if !g.dead[id] && win.Term >= p.Term {
			p, ok = win, true
		}
	}
	return p, ok
}

// Kill crashes a replica: its elector stops and its journal closes.
func (g *Group) Kill(id int) {
	g.mu.Lock()
	was := g.dead[id]
	g.dead[id] = true
	g.mu.Unlock()
	if !was {
		g.replicas[id].Stop()
	}
}

// Close stops every replica.
func (g *Group) Close() {
	for id := range g.replicas {
		g.Kill(id)
	}
}
