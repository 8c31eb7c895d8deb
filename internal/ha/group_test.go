package ha

import (
	"sync"
	"testing"

	"sdme/internal/controller"
)

// TestGroupPromotionBookkeepingRace: spurious re-elections promote and
// demote on elector goroutines while a story reads who leads. Run under
// -race; every reader takes the lock the hooks write under, and no
// promotion is lost.
func TestGroupPromotionBookkeepingRace(t *testing.T) {
	tr := &captureTransport{}
	g, err := NewGroup(GroupConfig{
		N: 3, Dir: t.TempDir(), Clock: stubClock{},
		Transport: func(int) PeerTransport { return tr },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	hooks := g.replicas[1].cfg
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for term := uint64(100); term < 300; term++ {
			hooks.OnPromote(&controller.JournalState{}, nil, term)
			hooks.OnDemote(term)
		}
	}()
	for i := 0; i < 200; i++ {
		if p, ok := g.Leader(); ok && p.ID != 1 {
			t.Errorf("replica %d leads; only replica 1 was ever promoted", p.ID)
		}
		_ = g.Promotions()
		_ = g.Alive(1)
	}
	wg.Wait()
	ps := g.Promotions()
	if len(ps) != 200 || ps[199] != (Promotion{ID: 1, Term: 299}) {
		t.Errorf("promotions lost: %d recorded, last %+v", len(ps), ps[len(ps)-1])
	}
	if _, ok := g.Leader(); ok {
		t.Error("a leader is reported after the last demotion")
	}
}
