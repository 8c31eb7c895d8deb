// Package lp is a self-contained linear-programming solver (two-phase
// primal simplex on a dense tableau) used by the controller to solve the
// paper's load-balancing optimizations, Eq. (1) and Eq. (2). The module is
// stdlib-only by project constraint, so the solver is written here rather
// than imported.
//
// Problems are stated as
//
//	minimize    c·x  (then, optionally, c2·x over the minimizers of c·x)
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// which is exactly the shape of the paper's formulations (all decision
// variables t(...) are non-negative traffic volumes).
//
// The implementation favors clarity and numerical robustness over raw
// speed: Dantzig pricing with a Bland's-rule fallback against cycling,
// explicit tolerance handling, and artificial-variable cleanup between
// phases. Controller-built instances (after the exact reductions
// described in DESIGN.md) stay small enough for a dense tableau.
//
// One problem is one tableau. Phase 1 finds a feasible basis and phase 2
// optimizes c·x. A second objective (the controller's per-type load
// spread at the optimal λ) continues from that basis: columns with a
// positive reduced cost are fixed at zero, confining the pivots to the
// optimal face, and c2 is priced out against the basis in hand — there
// is no second phase 1.
//
// The tableau is stored densely but pivoted sparsely: the controller's
// programs are block-angular (one block per chain, coupled only through
// the per-middlebox load rows), so a pivot row is mostly zeros and
// tableau.pivot updates the other rows only where it is not. The contract
// is bit-identity with a full sweep up to the sign of zero, because plans,
// journals and the committed result CSVs are compared byte for byte
// (TestSparsePivotMatchesDense checks every pivot against the dense one).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	Le Op = iota + 1 // a·x <= b
	Eq               // a·x  = b
	Ge               // a·x >= b
)

// String renders the relation.
func (o Op) String() string {
	switch o {
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. Create with NewProblem,
// add variables and constraints, then Solve.
type Problem struct {
	names       []string
	objective   []float64
	second      []float64 // parallel to objective; used iff hasSecond
	hasSecond   bool
	constraints []constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar introduces a non-negative variable and returns its index. The
// name is only for diagnostics.
func (p *Problem) AddVar(name string) int {
	p.names = append(p.names, name)
	p.objective = append(p.objective, 0)
	p.second = append(p.second, 0)
	return len(p.names) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the cost coefficient of a variable (minimization).
func (p *Problem) SetObjective(v int, coef float64) {
	p.objective[v] = coef
}

// SetSecondObjective sets the coefficient of a variable in the second
// objective (minimization). A problem with a second objective is solved
// lexicographically: among the optima of the first objective, Solve
// returns one that minimizes the second.
func (p *Problem) SetSecondObjective(v int, coef float64) {
	p.second[v] = coef
	p.hasSecond = true
}

// AddConstraint adds a constraint Σ terms (op) rhs. Terms may repeat a
// variable; coefficients accumulate.
func (p *Problem) AddConstraint(op Op, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.constraints = append(p.constraints, constraint{
		terms: append([]Term(nil), terms...),
		op:    op,
		rhs:   rhs,
	})
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// Objective is the optimum of the first objective.
	Objective float64
	// X holds one value per variable added with AddVar.
	X []float64
	// Iterations counts simplex pivots across both phases and, with a
	// second objective, the stage that optimizes it.
	Iterations int
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// ErrIterationLimit is returned when the simplex fails to terminate
// within its iteration budget (should not happen with Bland's fallback;
// kept as a defensive escape hatch).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const eps = 1e-9

// tableau is the simplex working state: dense rows (slices of one flat
// allocation) updated sparsely, see pivot. Row layout: one row per
// constraint then the objective row. Column layout: structural variables,
// slack/surplus variables, artificial variables, then the RHS column.
type tableau struct {
	rows, cols int // excludes objective row / rhs col in naming below
	a          [][]float64
	basis      []int // basis[r] = column basic in row r
	artStart   int
	iterations int
	// nz, nzv: pivot's scratch, the scaled pivot row's non-zero columns
	// and its values there.
	nz  []int
	nzv []float64
	// trace, when set (lp_test.go's lockstep dense reference; Solve leaves
	// it nil), is called before (done=false) and after every pivot.
	trace func(t *tableau, leave, enter int, done bool)
}

// Solve runs two-phase simplex and returns the solution.
func (p *Problem) Solve() (*Solution, error) { return p.solve(nil) }

func (p *Problem) solve(trace func(t *tableau, leave, enter int, done bool)) (*Solution, error) {
	n := len(p.names)
	m := len(p.constraints)

	// Count extra columns.
	nSlack := 0
	for _, c := range p.constraints {
		if c.op != Eq {
			nSlack++
		}
	}
	// Artificial variables: one per row whose canonical form lacks an
	// obvious basic column (Eq and Ge rows, and Le rows with negative rhs
	// after normalization). We allocate pessimistically one per row and
	// use only what we need.
	slackStart := n
	artStart := n + nSlack
	cols := artStart + m // upper bound on artificials
	t := &tableau{
		rows:     m,
		cols:     cols,
		artStart: artStart,
		basis:    make([]int, m),
		trace:    trace,
	}
	t.a = make([][]float64, m+1)
	flat := make([]float64, (m+1)*(cols+1))
	for i := range t.a {
		t.a[i] = flat[i*(cols+1) : (i+1)*(cols+1) : (i+1)*(cols+1)]
	}

	slackIdx := slackStart
	artIdx := artStart
	for i, c := range p.constraints {
		row := t.a[i]
		for _, term := range c.terms {
			row[term.Var] += term.Coef
		}
		row[cols] = c.rhs
		op := c.op
		// Normalize to non-negative rhs.
		if row[cols] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			switch op {
			case Le:
				op = Ge
			case Ge:
				op = Le
			}
		}
		switch op {
		case Le:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case Ge:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case Eq:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
	}

	// Phase 1: minimize the sum of artificial variables.
	if artIdx > artStart {
		sum := make([]float64, artIdx)
		for j := artStart; j < artIdx; j++ {
			sum[j] = 1
		}
		t.price(sum)
		if err := t.iterate(artIdx); err != nil {
			return nil, err
		}
		if phase1 := -t.a[m][cols]; phase1 > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: t.iterations}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: original objective over non-artificial columns.
	t.price(p.objective)
	err := t.iterate(artStart)
	objective := -t.a[m][cols]
	if err == nil && p.hasSecond {
		t.priceOnFace(p.second)
		err = t.iterate(artStart)
	}
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded, Iterations: t.iterations}, nil
	}
	if err != nil {
		return nil, err
	}

	sol := &Solution{
		Status:     Optimal,
		Objective:  objective,
		X:          make([]float64, n),
		Iterations: t.iterations,
	}
	for i := 0; i < m; i++ {
		if b := t.basis[i]; b < n {
			sol.X[b] = t.a[i][cols]
			if sol.X[b] < 0 && sol.X[b] > -eps {
				sol.X[b] = 0
			}
		}
	}
	return sol, nil
}

var errUnbounded = errors.New("lp: unbounded")

// price loads cost c (indexed by column, zero past its end) into the
// objective row and prices out the basic columns, leaving the reduced
// costs against the current basis.
func (t *tableau) price(c []float64) {
	obj := t.a[t.rows]
	clear(obj)
	copy(obj, c)
	for i, row := range t.a[:t.rows] {
		if coef := obj[t.basis[i]]; coef != 0 {
			for j := range row {
				obj[j] -= coef * row[j]
			}
		}
	}
}

// priceOnFace prices cost c over the optimal face of the objective just
// optimized: a column with a positive reduced cost there would leave the
// face if raised, so it is fixed at zero, zeroed in every row. A pivot on
// a column left (reduced cost zero within eps) keeps the others' as they
// were, so no later pivot leaves the face, and fixed columns cost none.
func (t *tableau) priceOnFace(c []float64) {
	var off []int
	for j, d := range t.a[t.rows][:t.artStart] {
		if d > eps {
			off = append(off, j)
		}
	}
	t.price(c)
	for _, row := range t.a {
		for _, j := range off {
			row[j] = 0
		}
	}
}

// iterate runs simplex pivots until optimality, considering entering
// columns in [0, colLimit). Dantzig pricing normally; pure Bland's rule
// once the pivot count passes a stall threshold, which guarantees
// termination.
func (t *tableau) iterate(colLimit int) error {
	m := t.rows
	obj := t.a[m]
	maxIter := 200*(m+colLimit) + 2000
	blandAfter := 20*(m+colLimit) + 500
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return ErrIterationLimit
		}
		bland := iter > blandAfter

		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < colLimit; j++ {
			if obj[j] < -eps {
				if bland {
					enter = j
					break
				}
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}

		// Leaving row by minimum ratio; ties to the smallest basis column
		// (lexicographic enough for Bland).
		leave := -1
		var bestRatio float64
		for i := 0; i < m; i++ {
			aij := t.a[i][enter]
			if aij <= eps {
				continue
			}
			ratio := t.a[i][t.cols] / aij
			if leave < 0 || ratio < bestRatio-eps ||
				(math.Abs(ratio-bestRatio) <= eps && t.basis[i] < t.basis[leave]) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave, updating the other rows
// only in the columns where the scaled pivot row is non-zero. Elsewhere a
// full sweep's row[j] -= f*0 leaves row[j] as it is (at most it turns -0
// into +0), so every entry that changes is computed by the same operations
// and the pivot sequence and solution are the same bits up to that sign.
func (t *tableau) pivot(leave, enter int) {
	prow := t.a[leave]
	if left := t.basis[leave]; left >= t.artStart {
		// An artificial leaving the basis is never needed again. Basic,
		// its column is zero outside this row, so zeroing the one entry
		// drops the column from the tableau and from every later pivot.
		prow[left] = 0
	}
	if t.trace != nil {
		t.trace(t, leave, enter, false)
	}
	inv := 1 / prow[enter]
	nz, nzv := t.nz[:0], t.nzv[:0]
	for j, v := range prow {
		if v != 0 {
			v *= inv
			prow[j] = v
			nz = append(nz, j)
			nzv = append(nzv, v)
		}
	}
	prow[enter] = 1 // exact
	// The touched rows go through the kernel two at a time; held is the
	// row waiting for its partner.
	var held []float64
	for i, row := range t.a {
		if i == leave || row[enter] == 0 {
			continue
		}
		if held == nil {
			held = row
			continue
		}
		subScaled2(held, held[enter], row, row[enter], nz, nzv)
		held[enter], row[enter] = 0, 0 // exact
		held = nil
	}
	if held != nil {
		f := held[enter]
		for k, j := range nz {
			held[j] -= f * nzv[k]
		}
		held[enter] = 0 // exact
	}
	t.nz, t.nzv = nz, nzv
	t.basis[leave] = enter
	t.iterations++
	if t.trace != nil {
		t.trace(t, leave, enter, true)
	}
}

// subScaled2 is pivot's inner loop, row[nz[k]] -= f*nzv[k] for every k, on
// two rows of equal length at once: the pair shares the loads of nz and
// nzv, a quarter of the loop's instructions (52 against 68 ms on the
// campus spread solve). Not inlined: inside pivot the loop spills its counter.
//
//go:noinline
func subScaled2(a []float64, fa float64, b []float64, fb float64, nz []int, nzv []float64) {
	nzv = nzv[:len(nz)]
	b = b[:len(a)]
	for k, j := range nz {
		v := nzv[k]
		a[j] -= fa * v
		b[j] -= fb * v
	}
}

// evictArtificials pivots any artificial variable still basic (at zero
// level after a feasible phase 1) out of the basis, or neutralizes its
// redundant row.
func (t *tableau) evictArtificials() {
rows:
	for i, row := range t.a[:t.rows] {
		if t.basis[i] < t.artStart {
			continue
		}
		for j, v := range row[:t.artStart] {
			if math.Abs(v) > eps {
				t.pivot(i, j)
				continue rows
			}
		}
		// Redundant row: zero it so it can never constrain phase 2. The
		// artificial stays basic in the zero row at level 0, and no column
		// prices against it.
		clear(row)
	}
}
