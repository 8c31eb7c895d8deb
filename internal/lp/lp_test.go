package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMaximizationAsMin(t *testing.T) {
	// max 3x + 2y s.t. x+y<=4, x+3y<=6  => x=4, y=0, obj 12.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, -3)
	p.SetObjective(y, -2)
	p.AddConstraint(Le, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Le, 6, Term{x, 1}, Term{y, 3})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -12) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 0) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x <= 4 => x=4, y=6, obj 16.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 2)
	p.AddConstraint(Eq, 10, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Le, 4, Term{x, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 16) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 6) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestGeConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 5, x >= 1, y >= 1 => x=4, y=1, obj 11.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 2)
	p.SetObjective(y, 3)
	p.AddConstraint(Ge, 5, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Ge, 1, Term{x, 1})
	p.AddConstraint(Ge, 1, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 11) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 1) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 (i.e. y >= x + 2), min y => x=0, y=2.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(y, 1)
	p.AddConstraint(Le, -2, Term{x, 1}, Term{y, -1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 2) || !approx(sol.Value(y), 2) {
		t.Errorf("obj=%v y=%v", sol.Objective, sol.Value(y))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	p.AddConstraint(Le, 1, Term{x, 1})
	p.AddConstraint(Ge, 2, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	p.SetObjective(x, -1) // maximize x with no upper bound
	p.AddConstraint(Ge, 0, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// The classic Beale cycling example; Bland fallback must terminate.
	p := NewProblem()
	x1, x2, x3, x4 := p.AddVar("x1"), p.AddVar("x2"), p.AddVar("x3"), p.AddVar("x4")
	p.SetObjective(x1, -0.75)
	p.SetObjective(x2, 150)
	p.SetObjective(x3, -0.02)
	p.SetObjective(x4, 6)
	p.AddConstraint(Le, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
	p.AddConstraint(Le, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
	p.AddConstraint(Le, 1, Term{x3, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -0.05) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows force a redundant-row eviction in phase 1.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint(Eq, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Eq, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Eq, 8, Term{x, 2}, Term{y, 2})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestZeroProblem(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 0) || !approx(sol.Objective, 0) {
		t.Errorf("trivial problem: %+v", sol)
	}
}

func TestRepeatedTermsAccumulate(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	p := NewProblem()
	x := p.AddVar("x")
	p.SetObjective(x, -1)
	p.AddConstraint(Le, 4, Term{x, 1}, Term{x, 1})
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 2) {
		t.Errorf("x = %v, want 2", sol.Value(x))
	}
}

func TestBadVarPanics(t *testing.T) {
	p := NewProblem()
	defer func() {
		if recover() == nil {
			t.Error("constraint on unknown var should panic")
		}
	}()
	p.AddConstraint(Le, 1, Term{0, 1})
}

func TestMinMaxLoadToy(t *testing.T) {
	// A miniature of the paper's problem: route demand 10 from a source
	// to two middleboxes with capacities 8 and 4; minimize the max load
	// factor λ. Optimal: load proportional to capacity, λ = 10/12.
	p := NewProblem()
	t1, t2, lam := p.AddVar("t1"), p.AddVar("t2"), p.AddVar("lambda")
	p.SetObjective(lam, 1)
	p.AddConstraint(Eq, 10, Term{t1, 1}, Term{t2, 1})
	p.AddConstraint(Le, 0, Term{t1, 1}, Term{lam, -8})
	p.AddConstraint(Le, 0, Term{t2, 1}, Term{lam, -4})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 10.0/12) {
		t.Errorf("lambda = %v, want %v", sol.Objective, 10.0/12)
	}
	if !approx(sol.Value(t1), 8*10.0/12) || !approx(sol.Value(t2), 4*10.0/12) {
		t.Errorf("t1=%v t2=%v", sol.Value(t1), sol.Value(t2))
	}
}

func TestTransportation(t *testing.T) {
	// 2 sources (supply 3, 5) x 2 sinks (demand 4, 4) with costs
	// [[1, 4], [2, 1]]. Optimum: s1->d1:3, s2->d1:1, s2->d2:4 cost 9.
	p := NewProblem()
	var x [2][2]int
	costs := [2][2]float64{{1, 4}, {2, 1}}
	supply := [2]float64{3, 5}
	demand := [2]float64{4, 4}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			x[i][j] = p.AddVar("")
			p.SetObjective(x[i][j], costs[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		p.AddConstraint(Eq, supply[i], Term{x[i][0], 1}, Term{x[i][1], 1})
	}
	for j := 0; j < 2; j++ {
		p.AddConstraint(Eq, demand[j], Term{x[0][j], 1}, Term{x[1][j], 1})
	}
	sol := solveOK(t, p)
	if !approx(sol.Objective, 9) {
		t.Errorf("objective = %v, want 9", sol.Objective)
	}
}

// bruteForce enumerates all basic solutions of min c·x, Ax = b (after
// adding slacks for Le), x >= 0, for tiny systems, returning the best
// objective; +Inf when infeasible.
func bruteForce(obj []float64, A [][]float64, b []float64) float64 {
	m := len(A)
	n := len(obj)
	best := math.Inf(1)
	idx := make([]int, m)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == m {
			x, ok := solveSquare(A, b, idx)
			if !ok {
				return
			}
			feasible := true
			val := 0.0
			full := make([]float64, n)
			for i, j := range idx {
				if x[i] < -1e-9 {
					feasible = false
					break
				}
				full[j] = x[i]
			}
			if !feasible {
				return
			}
			for j := 0; j < n; j++ {
				val += obj[j] * full[j]
			}
			if val < best {
				best = val
			}
			return
		}
		for j := start; j < n; j++ {
			idx[k] = j
			rec(j+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves A[:,idx] * x = b by Gaussian elimination.
func solveSquare(A [][]float64, b []float64, idx []int) ([]float64, bool) {
	m := len(A)
	M := make([][]float64, m)
	for i := 0; i < m; i++ {
		M[i] = make([]float64, m+1)
		for k, j := range idx {
			M[i][k] = A[i][j]
		}
		M[i][m] = b[i]
	}
	for col := 0; col < m; col++ {
		piv := -1
		for r := col; r < m; r++ {
			if math.Abs(M[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		M[col], M[piv] = M[piv], M[col]
		f := M[col][col]
		for j := col; j <= m; j++ {
			M[col][j] /= f
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			g := M[r][col]
			for j := col; j <= m; j++ {
				M[r][j] -= g * M[col][j]
			}
		}
	}
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = M[i][m]
	}
	return x, true
}

func TestRandomLPsAgainstBruteForce(t *testing.T) {
	// Random small LPs with equality constraints (plus slacks folded in
	// manually) cross-checked against exhaustive basic-solution search.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(2) // constraints
		n := m + 1 + rng.Intn(3)
		obj := make([]float64, n)
		A := make([][]float64, m)
		b := make([]float64, m)
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(9) + 1)
		}
		for i := 0; i < m; i++ {
			A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				A[i][j] = float64(rng.Intn(4))
			}
			b[i] = float64(rng.Intn(10))
		}
		want := bruteForce(obj, A, b)

		p := NewProblem()
		vars := make([]int, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVar("")
			p.SetObjective(vars[j], obj[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				if A[i][j] != 0 {
					terms = append(terms, Term{vars[j], A[i][j]})
				}
			}
			p.AddConstraint(Eq, b[i], terms...)
		}
		sol := solveLockstep(t, p)
		if math.IsInf(want, 1) {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: simplex found optimum %v where brute force says infeasible", trial, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force optimum %v", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: simplex %v != brute force %v", trial, sol.Objective, want)
		}
	}
}

func TestSolutionIsFeasible(t *testing.T) {
	// Property on random feasible problems: the returned X satisfies all
	// constraints within tolerance.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		p := NewProblem()
		n := 2 + rng.Intn(5)
		vars := make([]int, n)
		for j := range vars {
			vars[j] = p.AddVar("")
			p.SetObjective(vars[j], rng.Float64()*10-2)
		}
		type con struct {
			coefs []float64
			rhs   float64
		}
		var cons []con
		m := 1 + rng.Intn(4)
		for i := 0; i < m; i++ {
			c := con{coefs: make([]float64, n), rhs: float64(rng.Intn(20) + 1)}
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				c.coefs[j] = float64(rng.Intn(5))
				terms[j] = Term{vars[j], c.coefs[j]}
			}
			cons = append(cons, c)
			p.AddConstraint(Le, c.rhs, terms...)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == Unbounded {
			continue // negative costs can make Le-only problems unbounded
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for a feasible problem (origin feasible)", trial, sol.Status)
		}
		for ci, c := range cons {
			lhs := 0.0
			for j := range c.coefs {
				lhs += c.coefs[j] * sol.X[j]
			}
			if lhs > c.rhs+1e-6 {
				t.Fatalf("trial %d constraint %d violated: %v > %v", trial, ci, lhs, c.rhs)
			}
		}
		for j, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: negative variable %d = %v", trial, j, x)
			}
		}
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if Le.String() != "<=" || Eq.String() != "=" || Ge.String() != ">=" {
		t.Error("op strings wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should render")
	}
}

// densePivot is the pivot this package used before the sparse one (every
// column of every touched row), kept as the reference the production
// kernel is compared against.
func densePivot(a [][]float64, leave, enter int) {
	prow := a[leave]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1
	for i, row := range a {
		f := row[enter]
		if i == leave || f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[enter] = 0
	}
}

// solveLockstep solves p with the production kernel and, bracketing every
// pivot, applies densePivot to a copy of the tableau as it was before the
// pivot: the two results must be == entry for entry (which treats -0 and
// +0 as equal, the one difference the sparse kernel is allowed). Every
// decision of the simplex reads tableau values through comparisons only,
// so entrywise-equal tableaux after every pivot mean a dense solver walks
// the same pivot sequence; the count of checked pivots must therefore be
// the solution's Iterations.
func solveLockstep(t *testing.T, p *Problem) *Solution {
	t.Helper()
	var want [][]float64
	pivots := 0
	sol, err := p.solve(func(tb *tableau, leave, enter int, done bool) {
		if !done {
			want = want[:0]
			for _, row := range tb.a {
				want = append(want, append([]float64(nil), row...))
			}
			densePivot(want, leave, enter)
			return
		}
		pivots++
		for i, row := range tb.a {
			for j, v := range row {
				if v != want[i][j] {
					t.Fatalf("pivot %d (row %d, col %d): entry [%d][%d] = %v, dense pivot gives %v",
						pivots, leave, enter, i, j, v, want[i][j])
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Iterations != pivots {
		t.Fatalf("Iterations = %d, %d pivots checked", sol.Iterations, pivots)
	}
	return sol
}

// campusProgram builds a program with the block structure of the
// controller's campus rebalance (controller/lb.go): chain instances of
// one to three functions, source groups and providers each splitting over
// three or four candidates (an Eq row per split), coupled only through the
// rows of each middlebox. At 30 instances it has the size of the
// rebalance bench's control_loop solves (845 split variables, 243 Eq rows,
// 22 middleboxes there). With lambdaStar nil it is the rebalance as the
// controller solves it: min λ over one capacity row, one ceiling row
// (load + h_f·C ≤ U·C, h_f = U − λ_f the headroom under the type's
// maximum λ_f) and one floor row (μ_f·C − load ≤ 0) per middlebox, with
// the per-type spread as the second objective. Otherwise it is the reference
// the controller solved before the two objectives shared a tableau: the
// spread program as a separate LP at that λ*, with a hard cap per
// middlebox and the floor as a Ge row. The second result is U, the
// headroom's origin.
func campusProgram(insts int, lambdaStar *float64) (*Problem, float64) {
	rng := rand.New(rand.NewSource(20))
	const nFuncs, perFunc, capacity = 4, 6, 1000
	p := NewProblem()
	lam := p.AddVar("lambda")
	// ceil[f] is the headroom h_f in the rebalance and λ_f in the reference.
	var ceil, muF [nFuncs]int
	for f := range ceil {
		ceil[f], muF[f] = p.AddVar("ceiling_f"), p.AddVar("mu_f")
		if lambdaStar == nil {
			p.SetSecondObjective(ceil[f], -1)
			p.SetSecondObjective(muF[f], -0.01)
		} else {
			p.SetObjective(ceil[f], 1)
			p.SetObjective(muF[f], -0.01)
		}
	}
	if lambdaStar == nil {
		p.SetObjective(lam, 1)
	}
	u := 0.0                                // Σ volume × chain length: no load exceeds it
	loads := make([][]Term, nFuncs*perFunc) // middlebox f*perFunc+k implements f
	split := func(f int, inflow []Term, rhs float64) map[int][]Term {
		out := make(map[int][]Term)
		cons := make([]Term, 0, 3+len(inflow))
		for _, k := range rng.Perm(perFunc)[:3+rng.Intn(2)] {
			v := p.AddVar("")
			cons = append(cons, Term{v, 1})
			out[f*perFunc+k] = append(out[f*perFunc+k], Term{v, 1})
		}
		for _, in := range inflow {
			cons = append(cons, Term{in.Var, -1})
		}
		p.AddConstraint(Eq, rhs, cons...)
		return out
	}
	merge := func(dst, src map[int][]Term) {
		for x, terms := range src {
			dst[x] = append(dst[x], terms...)
		}
	}
	for ; insts > 0; insts-- {
		chain := rng.Perm(nFuncs)[:1+rng.Intn(3)]
		inflow := make(map[int][]Term)
		for g := 2 + rng.Intn(4); g > 0; g-- {
			vol := float64(20 + rng.Intn(200))
			u += vol * float64(len(chain))
			merge(inflow, split(chain[0], nil, vol))
		}
		for _, f := range chain[1:] {
			next := make(map[int][]Term)
			for x := 0; x < len(loads); x++ {
				if in := inflow[x]; in != nil {
					loads[x] = append(loads[x], in...)
					merge(next, split(f, in, 0))
				}
			}
			inflow = next
		}
		for x, in := range inflow {
			loads[x] = append(loads[x], in...)
		}
	}
	for x, terms := range loads {
		with := func(v int) []Term { return append([]Term{{v, -capacity}}, terms...) }
		if lambdaStar == nil {
			p.AddConstraint(Le, 0, with(lam)...)
			p.AddConstraint(Le, u, append([]Term{{ceil[x/perFunc], capacity}}, terms...)...)
			floor := []Term{{muF[x/perFunc], capacity}}
			for _, t := range terms {
				floor = append(floor, Term{t.Var, -t.Coef})
			}
			p.AddConstraint(Le, 0, floor...)
			continue
		}
		p.AddConstraint(Le, (*lambdaStar+1e-7**lambdaStar+1e-9)*capacity, terms...)
		p.AddConstraint(Le, 0, with(ceil[x/perFunc])...)
		p.AddConstraint(Ge, 0, with(muF[x/perFunc])...)
	}
	return p, u / capacity
}

func TestSparsePivotMatchesDense(t *testing.T) {
	insts := 30
	if testing.Short() {
		insts = 10
	}
	p, _ := campusProgram(insts, nil)
	sol := solveLockstep(t, p)
	if sol.Status != Optimal || sol.Objective <= 0 {
		t.Fatalf("rebalance program: %v, λ = %v", sol.Status, sol.Objective)
	}
	t.Logf("rebalance: %d pivots", sol.Iterations)
}

// TestCampusRebalancePivotBudget pins what the second objective costs on
// the campus rebalance: the pivots after the first objective's optimum.
// Solved as two programs, before they shared a tableau, min-λ took 423
// pivots and the separate spread program 679, 654 of them in its own
// phase 1 from an all-artificial basis. On one tableau the rebalance
// takes 502: 423 to the min-λ optimum, as many as the min-λ program alone
// (the ceiling and floor rows start on their slacks, far from binding),
// and 79 for the spread. The counts are deterministic; a second stage that
// searched for a feasible basis again would cost hundreds more. The
// spread optimum must be the reference's.
func TestCampusRebalancePivotBudget(t *testing.T) {
	const stage2Budget = 200
	p, u := campusProgram(30, nil)
	lex := solveOK(t, p)
	p.hasSecond = false
	first := solveOK(t, p)
	if lex.Objective != first.Objective {
		t.Fatalf("λ = %v with the spread stage, %v without", lex.Objective, first.Objective)
	}
	stage2 := lex.Iterations - first.Iterations
	t.Logf("min-λ %d pivots, spread stage %d", first.Iterations, stage2)
	if stage2 > stage2Budget {
		t.Errorf("the spread stage took %d pivots, budget %d: does it search for a feasible basis again?", stage2, stage2Budget)
	}

	// The reference minimizes Σ λ_f − 0.01·Σ μ_f; the rebalance the same
	// with each λ_f as U − h_f, four types.
	ref, _ := campusProgram(30, &lex.Objective)
	want := solveOK(t, ref).Objective
	if got := dot(p.second, lex.X) + 4*u; math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("spread objective %v, the two-program reference reaches %v", got, want)
	}
}

func dot(c, x []float64) float64 {
	var s float64
	for j := range c {
		s += c[j] * x[j]
	}
	return s
}

// TestRandomLexicographicLPs is the second objective's property on random
// small programs with tied first-objective costs (so the optimal faces
// are not single vertices): the second stage never moves the first
// objective off its optimum, and it reaches the optimum of the
// two-program reference — minimize the first objective, then the second
// with the first capped at its optimum.
func TestRandomLexicographicLPs(t *testing.T) {
	type row struct {
		op    Op
		rhs   float64
		coefs []float64
	}
	rng := rand.New(rand.NewSource(27))
	solved, moved := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(5)
		c1, c2 := make([]float64, n), make([]float64, n)
		budget := row{op: Le, rhs: 20, coefs: make([]float64, n)}
		for j := range c1 {
			c1[j] = float64(rng.Intn(3))
			c2[j] = float64(rng.Intn(7) - 3)
			budget.coefs[j] = 1
		}
		rows := []row{budget} // bounds both objectives
		for i := 1 + rng.Intn(3); i > 0; i-- {
			r := row{op: Op(1 + rng.Intn(3)), rhs: float64(rng.Intn(10)), coefs: make([]float64, n)}
			for j := range r.coefs {
				r.coefs[j] = float64(rng.Intn(4))
			}
			rows = append(rows, r)
		}
		build := func(first, second []float64, extra ...row) *Problem {
			p := NewProblem()
			for j := 0; j < n; j++ {
				v := p.AddVar("")
				p.SetObjective(v, first[j])
				if second != nil {
					p.SetSecondObjective(v, second[j])
				}
			}
			for _, r := range append(rows[:len(rows):len(rows)], extra...) {
				var terms []Term
				for j, a := range r.coefs {
					if a != 0 {
						terms = append(terms, Term{j, a})
					}
				}
				p.AddConstraint(r.op, r.rhs, terms...)
			}
			return p
		}

		lex := solveLockstep(t, build(c1, c2))
		z1 := solveLockstep(t, build(c1, nil))
		if lex.Status != z1.Status {
			t.Fatalf("trial %d: status %v with a second objective, %v without", trial, lex.Status, z1.Status)
		}
		if z1.Status != Optimal {
			continue
		}
		solved++
		if lex.Iterations > z1.Iterations {
			moved++
		}
		for i, r := range rows {
			lhs := dot(r.coefs, lex.X)
			if (r.op == Le && lhs > r.rhs+1e-6) || (r.op == Ge && lhs < r.rhs-1e-6) ||
				(r.op == Eq && math.Abs(lhs-r.rhs) > 1e-6) {
				t.Fatalf("trial %d: row %d violated: %v %v %v", trial, i, lhs, r.op, r.rhs)
			}
		}
		tol := 1e-9 * math.Max(1, math.Abs(z1.Objective))
		if lex.Objective != z1.Objective || math.Abs(dot(c1, lex.X)-z1.Objective) > tol {
			t.Fatalf("trial %d: first objective %v (reported %v), optimum %v",
				trial, dot(c1, lex.X), lex.Objective, z1.Objective)
		}
		ref := solveOK(t, build(c2, nil, row{op: Le, rhs: z1.Objective + tol, coefs: c1}))
		if got := dot(c2, lex.X); math.Abs(got-ref.Objective) > 1e-6*math.Max(1, math.Abs(ref.Objective)) {
			t.Fatalf("trial %d: second objective %v, two-program reference %v", trial, got, ref.Objective)
		}
	}
	// The property means something only if the optima were common and the
	// second stage often had somewhere to go.
	if solved < 100 || moved < 30 {
		t.Fatalf("%d of 300 trials optimal, %d with second-stage pivots", solved, moved)
	}
	t.Logf("%d of 300 trials optimal, %d with second-stage pivots", solved, moved)
}

func benchmarkSolve(b *testing.B, p *Problem) {
	b.ResetTimer() // building p is not the solve
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			b.Fatalf("%v %v", err, sol)
		}
	}
}

// BenchmarkSolveCampusRebalance is one rebalance's solve, both objectives.
func BenchmarkSolveCampusRebalance(b *testing.B) {
	p, _ := campusProgram(30, nil)
	benchmarkSolve(b, p)
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A min-max-load instance shaped like the controller's: 40 sources
	// spread over 8 middleboxes with random candidate sets.
	rng := rand.New(rand.NewSource(9))
	build := func() *Problem {
		p := NewProblem()
		lam := p.AddVar("lambda")
		p.SetObjective(lam, 1)
		const nm = 8
		loads := make([][]Term, nm)
		for s := 0; s < 40; s++ {
			demand := float64(rng.Intn(50) + 10)
			k := 3
			terms := make([]Term, 0, k)
			for c := 0; c < k; c++ {
				mb := rng.Intn(nm)
				v := p.AddVar("")
				terms = append(terms, Term{v, 1})
				loads[mb] = append(loads[mb], Term{v, 1})
			}
			p.AddConstraint(Eq, demand, terms...)
		}
		for mb := 0; mb < nm; mb++ {
			terms := append([]Term{{lam, -300}}, loads[mb]...)
			p.AddConstraint(Le, 0, terms...)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve()
		if err != nil || sol.Status != Optimal {
			b.Fatalf("%v %v", err, sol)
		}
	}
}
