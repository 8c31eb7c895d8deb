package verify_test

import (
	"math"
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/route"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

// planBed is a campus deployment with a healthy controller-computed plan
// that corruption tests mutate one invariant at a time.
type planBed struct {
	g     *topo.Graph
	dep   *enforce.Deployment
	ap    *route.AllPairs
	tbl   *policy.Table
	polID int
	fw    [3]topo.NodeID
	ids   [2]topo.NodeID
	cands map[topo.NodeID]map[policy.FuncType][]topo.NodeID
}

func kTwo(policy.FuncType) int { return 2 }

func newPlanBed(t *testing.T, seed int64) *planBed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topo.Campus(topo.CampusConfig{Gateways: 2, CoreRouters: 6, EdgeRouters: 4, WithProxies: true}, rng)
	dep, err := enforce.NewDeployment(g)
	if err != nil {
		t.Fatal(err)
	}
	cores := g.NodesOfKind(topo.KindCoreRouter)
	b := &planBed{g: g, dep: dep}
	b.fw[0] = dep.AddMiddlebox(cores[0], "fw1", policy.FuncFW)
	b.fw[1] = dep.AddMiddlebox(cores[3], "fw2", policy.FuncFW)
	b.fw[2] = dep.AddMiddlebox(cores[5], "fw3", policy.FuncFW)
	b.ids[0] = dep.AddMiddlebox(cores[1], "ids1", policy.FuncIDS)
	b.ids[1] = dep.AddMiddlebox(cores[4], "ids2", policy.FuncIDS)

	tbl := policy.NewTable()
	d := policy.NewDescriptor()
	d.DstPort = netaddr.SinglePort(80)
	tbl.Add(d, policy.ActionList{policy.FuncFW, policy.FuncIDS})
	b.tbl = tbl
	b.polID = tbl.All()[0].ID
	b.ap = route.NewAllPairs(g, route.RouterTransitOnly(g))

	ctl := controller.New(dep, b.ap, tbl, controller.Options{
		K: map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
	})
	plan, err := ctl.CompilePlan(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b.cands = plan.Candidates
	return b
}

// plan returns a Plan over a deep copy of the healthy candidates, safe to
// corrupt per test case.
func (b *planBed) plan() verify.Plan {
	cp := make(map[topo.NodeID]map[policy.FuncType][]topo.NodeID, len(b.cands))
	for x, byFunc := range b.cands {
		cp[x] = make(map[policy.FuncType][]topo.NodeID, len(byFunc))
		for e, list := range byFunc {
			cp[x][e] = append([]topo.NodeID(nil), list...)
		}
	}
	return verify.Plan{Dep: b.dep, AP: b.ap, Policies: b.tbl, Candidates: cp, K: kTwo}
}

// vkey is a Violation minus its free-text detail, for exact-set compares.
type vkey struct {
	inv  verify.Invariant
	sev  verify.Severity
	node topo.NodeID
	pol  int
	fn   policy.FuncType
}

func keysOf(vs []verify.Violation) map[vkey]int {
	out := make(map[vkey]int)
	for _, v := range vs {
		out[vkey{v.Invariant, v.Severity, v.Node, v.PolicyID, v.Func}]++
	}
	return out
}

func wantExact(t *testing.T, got []verify.Violation, want []vkey) {
	t.Helper()
	gk := keysOf(got)
	wk := make(map[vkey]int)
	for _, k := range want {
		wk[k]++
	}
	for k, n := range wk {
		if gk[k] != n {
			t.Errorf("violation %+v: got %d, want %d", k, gk[k], n)
		}
	}
	for k, n := range gk {
		if wk[k] == 0 {
			t.Errorf("unexpected violation %+v (×%d)", k, n)
		}
	}
	if t.Failed() {
		for _, v := range got {
			t.Logf("got: %s", v)
		}
	}
}

// firstWith returns a node whose candidate list for e contains mb.
func (b *planBed) firstWith(t *testing.T, e policy.FuncType, mb topo.NodeID) topo.NodeID {
	t.Helper()
	for _, x := range append(append([]topo.NodeID(nil), b.dep.ProxyNodes...), b.dep.MBNodes...) {
		for _, m := range b.cands[x][e] {
			if m == mb {
				return x
			}
		}
	}
	t.Fatalf("no node has %d in its %v candidates", int(mb), e)
	return topo.InvalidNode
}

func TestHealthyPlanHasNoViolations(t *testing.T) {
	for _, seed := range []int64{7, 20, 99} {
		b := newPlanBed(t, seed)
		if vs := verify.Check(b.plan()); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: unexpected violation: %s", seed, v)
			}
		}
	}
}

func TestCorruptedPlans(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(t *testing.T, b *planBed, p *verify.Plan)
		want    func(b *planBed, p *verify.Plan) []vkey
	}{
		{
			// Dropping the last provider's candidates blackholes flows:
			// coverage must flag the node, nothing else fires.
			name: "dropped-provider-coverage",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				delete(p.Candidates[b.dep.ProxyNodes[0]], policy.FuncFW)
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				return []vkey{{verify.InvCoverage, verify.SevError, b.dep.ProxyNodes[0], b.polID, policy.FuncFW}}
			},
		},
		{
			// A reversed candidate list is no longer the distance-sorted
			// prefix: the hot-potato target at index 0 is wrong.
			name: "reversed-candidates-hp-optimality",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				x := b.dep.ProxyNodes[0]
				list := p.Candidates[x][policy.FuncFW]
				if len(list) != 2 {
					t.Fatalf("want 2 FW candidates at proxy, got %d", len(list))
				}
				list[0], list[1] = list[1], list[0]
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				return []vkey{{verify.InvHotPotato, verify.SevError, b.dep.ProxyNodes[0], -1, policy.FuncFW}}
			},
		},
		{
			// A candidate set larger than the configured k leaks state the
			// dataplane was sized against.
			name: "oversized-candidate-set",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				x := b.dep.ProxyNodes[0]
				p.Candidates[x][policy.FuncFW] = b.ap.KClosest(x, b.dep.Providers(policy.FuncFW), 3)
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				return []vkey{{verify.InvHotPotato, verify.SevError, b.dep.ProxyNodes[0], -1, policy.FuncFW}}
			},
		},
		{
			// A proxy inserted into a middlebox's stage-1 candidates closes
			// the tunnel overlay into a cycle (proxy → fw → proxy) and is a
			// non-provider, so hp-optimality fires too.
			name: "tunnel-cycle",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				proxy := b.firstWith(t, policy.FuncFW, b.fw[0])
				p.Candidates[b.fw[0]][policy.FuncIDS] = []topo.NodeID{proxy}
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				proxy := p.Candidates[b.fw[0]][policy.FuncIDS][0]
				return []vkey{
					{verify.InvHotPotato, verify.SevError, b.fw[0], -1, policy.FuncIDS},
					// findCycle reports the cycle anchored at the first grey
					// node the DFS re-enters — the proxy, whose ID is lower.
					{verify.InvLoop, verify.SevError, minID(proxy, b.fw[0]), b.polID, policy.FuncFW},
				}
			},
		},
		{
			// A stage-1 (IDS) candidate that implements the stage-0 function
			// makes the dataplane re-infer the packet's position at stage 0
			// and re-run the chain prefix: the myFunc stage regression.
			name: "stage-regression",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				p.Candidates[b.fw[0]][policy.FuncIDS] = []topo.NodeID{b.fw[1]}
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				return []vkey{
					{verify.InvHotPotato, verify.SevError, b.fw[0], -1, policy.FuncIDS},
					{verify.InvLoop, verify.SevError, b.fw[0], b.polID, policy.FuncIDS},
				}
			},
		},
		{
			// A failed middlebox left in candidate sets is the staleness a
			// crash between MarkFailed and the repair Recompute would leave: every
			// holder gets a failed-candidate finding, and its list is no
			// longer the prefix of the *live* providers.
			name: "failed-middlebox-in-candidates",
			corrupt: func(t *testing.T, b *planBed, p *verify.Plan) {
				p.Failed = []topo.NodeID{b.fw[0]}
			},
			want: func(b *planBed, p *verify.Plan) []vkey {
				var want []vkey
				for x, byFunc := range p.Candidates {
					for _, m := range byFunc[policy.FuncFW] {
						if m == b.fw[0] {
							want = append(want,
								vkey{verify.InvFailed, verify.SevError, x, -1, policy.FuncFW},
								vkey{verify.InvHotPotato, verify.SevError, x, -1, policy.FuncFW})
						}
					}
				}
				return want
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := newPlanBed(t, 7)
			p := b.plan()
			tc.corrupt(t, b, &p)
			got := verify.Check(p)
			wantExact(t, got, tc.want(b, &p))
			if verify.AsError(got) == nil {
				t.Error("AsError = nil for a plan with hard violations")
			}
		})
	}
}

func minID(a, b topo.NodeID) topo.NodeID {
	if a < b {
		return a
	}
	return b
}

func TestWeightChecks(t *testing.T) {
	b := newPlanBed(t, 7)
	x := b.dep.ProxyNodes[0]
	key := enforce.WeightKey{PolicyID: b.polID, Func: policy.FuncFW, SrcSubnet: 1, DstSubnet: 2}
	wrap := func(vec []float64, k enforce.WeightKey) map[topo.NodeID]map[enforce.WeightKey][]float64 {
		return map[topo.NodeID]map[enforce.WeightKey][]float64{x: {k: vec}}
	}

	tests := []struct {
		name      string
		weights   map[topo.NodeID]map[enforce.WeightKey][]float64
		normalize bool
		want      []vkey
	}{
		{name: "valid-volume-weights", weights: wrap([]float64{3, 1}, key)},
		{name: "valid-normalized", weights: wrap([]float64{0.75, 0.25}, key), normalize: true},
		{
			name: "negative-entry", weights: wrap([]float64{-0.5, 1.5}, key),
			want: []vkey{{verify.InvWeights, verify.SevError, x, b.polID, policy.FuncFW}},
		},
		{
			name: "non-finite-entry", weights: wrap([]float64{math.NaN(), 1}, key),
			want: []vkey{{verify.InvWeights, verify.SevError, x, b.polID, policy.FuncFW}},
		},
		{
			name: "length-mismatch", weights: wrap([]float64{1}, key),
			want: []vkey{{verify.InvWeights, verify.SevError, x, b.polID, policy.FuncFW}},
		},
		{
			name: "denormalized-sum", weights: wrap([]float64{0.3, 0.3}, key), normalize: true,
			want: []vkey{{verify.InvWeights, verify.SevError, x, b.polID, policy.FuncFW}},
		},
		{
			name:    "no-candidate-set-for-func",
			weights: wrap([]float64{1}, enforce.WeightKey{PolicyID: b.polID, Func: policy.FuncWP, SrcSubnet: 1, DstSubnet: 2}),
			want:    []vkey{{verify.InvWeights, verify.SevError, x, b.polID, policy.FuncWP}},
		},
		{
			name: "all-zero-is-warning-only", weights: wrap([]float64{0, 0}, key),
			want: []vkey{{verify.InvWeights, verify.SevWarning, x, b.polID, policy.FuncFW}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := b.plan()
			p.Weights = tc.weights
			p.RequireNormalized = tc.normalize
			got := verify.Check(p)
			wantExact(t, got, tc.want)
			hard := false
			for _, k := range tc.want {
				if k.sev >= verify.SevError {
					hard = true
				}
			}
			if err := verify.AsError(got); (err != nil) != hard {
				t.Errorf("AsError = %v, want hard=%v", err, hard)
			}
		})
	}
}

// TestReassignAfterFailureIsClean is the regression guard for the
// dependability loop: after MarkFailed, the repair turn of the loop must
// always produce a plan with zero violations — the failed box is gone
// from every candidate set and the survivors re-rank into valid prefixes.
func TestReassignAfterFailureIsClean(t *testing.T) {
	b := newPlanBed(t, 7)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		K:      map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		Verify: true,
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := pipe.Recompute(nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		t.Fatal(err)
	}
	repair := func(mb topo.NodeID, down bool) []verify.Violation {
		t.Helper()
		if err := ctl.MarkFailed(mb, down); err != nil {
			t.Fatal(err)
		}
		pipe.NodeChanged(mb)
		upd, err := pipe.Recompute(nil)
		if err != nil {
			t.Fatalf("repair after marking %d down=%v: %v", int(mb), down, err)
		}
		if err := controller.ApplyDeltas(nodes, upd.Deltas); err != nil {
			t.Fatal(err)
		}
		return ctl.VerifyPlan(upd.Plan)
	}
	for _, mb := range []topo.NodeID{b.fw[0], b.ids[0]} {
		for _, v := range repair(mb, true) {
			t.Errorf("after failing %d: %s", int(mb), v)
		}
	}
	// Recovery must verify clean too.
	if vs := repair(b.fw[0], false); len(vs) != 0 {
		t.Errorf("after recovery: %d violations", len(vs))
	}
}

// TestVerifiedLBSolutionIsClean closes the loop with the LP: a solved LB
// plan must pass the weight checks in volume mode (the solver emits
// volume-valued vectors, normalized at selection time).
func TestVerifiedLBSolutionIsClean(t *testing.T) {
	b := newPlanBed(t, 7)
	ctl := controller.New(b.dep, b.ap, b.tbl, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        map[policy.FuncType]int{policy.FuncFW: 2, policy.FuncIDS: 2},
		Verify:   true,
	})
	meas := controller.Measurements{}
	for s := 1; s <= b.dep.NumSubnets(); s++ {
		for d := 1; d <= b.dep.NumSubnets(); d++ {
			if s == d {
				continue
			}
			meas[enforce.MeasKey{PolicyID: b.polID, SrcSubnet: s, DstSubnet: d}] = 100
		}
	}
	upd, err := ctl.NewPipeline(controller.PipelineOptions{}).Recompute(meas)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.Plan.Weights) == 0 {
		t.Fatal("the plan was not solved")
	}
	for _, v := range ctl.VerifyPlan(upd.Plan) {
		if v.Severity >= verify.SevError {
			t.Errorf("LB solution violation: %s", v)
		}
	}
}
