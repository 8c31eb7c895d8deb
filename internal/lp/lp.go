// Package lp is a self-contained linear-programming solver (a revised
// simplex: primal two-phase, plus a dual simplex for warm starts) used by
// the controller to solve the paper's load-balancing optimizations,
// Eq. (1) and Eq. (2). The module is stdlib-only by project constraint,
// so the solver is written here rather than imported.
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
// The constraint matrix is stored by sparse columns and never
// transformed. The solver keeps the basis B instead, factorized: a
// sparse LU of B (Markowitz pivot order, threshold pivoting) followed by
// one product-form eta per basis change, refactorized every
// refactorEvery pivots. Each pivot prices every column against the duals
// c_B·B⁻¹ and solves for the entering column B⁻¹a_q; the controller's
// programs are block-angular (one block per chain, coupled only through
// the per-middlebox load rows) and B has about five non-zeros per column,
// so a pivot costs a few thousand flops where a tableau pivot touched
// every row of the entering column at the basis's fill.
//
// The cold path is the two-phase primal simplex: Dantzig pricing with a
// Bland's-rule fallback against cycling, ties in the ratio test to the
// smallest basic column, artificial-variable cleanup between phases. A
// second objective (the controller's per-type load spread at the optimal
// λ) continues from the first's optimal basis: columns with a positive
// reduced cost are fixed at zero, confining the pivots to the optimal
// face, and c2 is priced against the basis in hand.
//
// SolveFrom takes a start basis from an earlier solve of a program with
// the same rows and terms (Solution.Basis; only the right-hand sides may
// differ). It factorizes that basis, re-prices the first objective,
// restores primal feasibility with dual simplex pivots and then runs the
// second objective's stage as the cold path does. A start for another
// program, a singular start, one that is not dual feasible for the first
// objective, or a dual simplex that stalls or finds no pivot falls back
// to the cold path; Solution.Start says which path ran.
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

// key hashes what a start basis depends on: the variable count and every
// row's relation and terms. Right-hand sides and objectives are left out;
// a basis stays a valid start when only they change. It is compared only
// in memory, so it mixes whole words (FNV-1a's step, a word at a time).
func (p *Problem) key() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(w uint64) { h = (h ^ w) * prime }
	mix(uint64(len(p.names)))
	mix(uint64(len(p.constraints)))
	for _, c := range p.constraints {
		mix(uint64(c.op)<<32 | uint64(len(c.terms)))
		for _, t := range c.terms {
			mix(uint64(t.Var))
			mix(math.Float64bits(t.Coef))
		}
	}
	return h
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

// Start reports which path a solve took.
type Start int

// Solve paths.
const (
	// Cold: no start basis was given; two-phase primal simplex.
	Cold Start = iota
	// Warm: the start basis was factorized and made optimal by dual and
	// primal pivots.
	Warm
	// Fallback: a start basis was given but refused (another program, a
	// singular or dual-infeasible basis, or a stalled dual simplex); the
	// cold path ran.
	Fallback
)

// String renders the path.
func (s Start) String() string {
	switch s {
	case Cold:
		return "cold"
	case Warm:
		return "warm"
	case Fallback:
		return "fallback"
	default:
		return fmt.Sprintf("start(%d)", int(s))
	}
}

// Stage indexes Solution.Pivots.
type Stage int

// Solve stages.
const (
	// StagePhase1 finds a feasible basis (cold path), artificial
	// evictions included.
	StagePhase1 Stage = iota
	// StageFirst optimizes the first objective by primal pivots.
	StageFirst
	// StageDual restores primal feasibility of a start basis (warm path).
	StageDual
	// StageSecond optimizes the second objective over the first's face.
	StageSecond
	numStages
)

// Basis is an optimal basis of a solved program: one column per row. It
// is a start for SolveFrom on a program with the same rows and terms.
type Basis struct {
	key  uint64
	cols []int
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// Objective is the optimum of the first objective.
	Objective float64
	// X holds one value per variable added with AddVar.
	X []float64
	// Iterations counts simplex pivots across every stage, a refused warm
	// start's included.
	Iterations int
	// Pivots splits Iterations by stage.
	Pivots [numStages]int
	// Start is the path the solve took.
	Start Start
	// Basis is the final basis when Optimal and no artificial variable is
	// left in it (a program with redundant rows keeps one), else nil.
	Basis *Basis
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// ErrIterationLimit is returned when the simplex fails to terminate
// within its iteration budget (should not happen with Bland's fallback;
// kept as a defensive escape hatch).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// errSingular reports a basis the factorization could not pivot through.
var errSingular = errors.New("lp: singular basis")

var errUnbounded = errors.New("lp: unbounded")

const (
	eps = 1e-9
	// dualTol is how far below zero a start basis's reduced cost may be
	// and still count as dual feasible; the primal pass after the dual
	// simplex prices such a column in.
	dualTol = 1e-7
	// refactorEvery is the eta file's length at which B is factorized
	// afresh.
	refactorEvery = 64
)

// Solve runs two-phase simplex and returns the solution.
func (p *Problem) Solve() (*Solution, error) { return p.solve(nil, nil) }

// SolveFrom solves p starting from basis start, an earlier solution's
// Basis (nil solves cold). A start that does not fit falls back to the
// cold path; the optimum is the same either way.
func (p *Problem) SolveFrom(start *Basis) (*Solution, error) { return p.solve(start, nil) }

func (p *Problem) solve(start *Basis, trace func(s *solver, stage Stage, leave, enter int)) (*Solution, error) {
	s := p.newSolver()
	s.trace = trace
	key := p.key()
	path := Cold
	if start != nil {
		path = Fallback
		if start.key == key && s.warm(start.cols, p.objective) {
			path = Warm
		}
	}
	if path != Warm {
		s.coldBasis()
		if s.artEnd > s.artStart {
			// Phase 1: minimize the sum of artificial variables.
			clear(s.cost)
			for j := s.artStart; j < s.artEnd; j++ {
				s.cost[j] = 1
			}
			if err := s.primal(s.artEnd, StagePhase1); err != nil {
				return nil, err
			}
			if s.objective() > 1e-7 {
				return &Solution{Status: Infeasible, Iterations: s.iterations, Pivots: s.pivots, Start: path}, nil
			}
			if err := s.evictArtificials(); err != nil {
				return nil, err
			}
		}
		// Phase 2: original objective over non-artificial columns.
		s.setCost(p.objective)
	}
	err := s.primal(s.artStart, StageFirst)
	objective := s.objective()
	if err == nil && p.hasSecond {
		s.fixOffFace()
		s.setCost(p.second)
		err = s.primal(s.artStart, StageSecond)
	}
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded, Iterations: s.iterations, Pivots: s.pivots, Start: path}, nil
	}
	if err != nil {
		return nil, err
	}

	sol := &Solution{
		Status:     Optimal,
		Objective:  objective,
		X:          make([]float64, s.n),
		Iterations: s.iterations,
		Pivots:     s.pivots,
		Start:      path,
	}
	artificial := false
	for r, b := range s.basis {
		switch {
		case b < s.n:
			sol.X[b] = s.xB[r]
			if sol.X[b] < 0 && sol.X[b] > -eps {
				sol.X[b] = 0
			}
		case b >= s.artStart:
			artificial = true
		}
	}
	if !artificial {
		sol.Basis = &Basis{key: key, cols: append([]int(nil), s.basis...)}
	}
	return sol, nil
}

// solver is the revised simplex's working state. Column layout, as the
// tableau this solver replaced had it: structural variables, one slack
// per inequality row (in row order), then one artificial per row that
// needs one (Ge and Eq rows after normalizing every right-hand side to be
// non-negative). The matrix is stored by columns and never changes.
type solver struct {
	m, n     int
	artStart int // first artificial column
	artEnd   int // one past the last
	colStart []int
	rowIdx   []int
	val      []float64
	// The same matrix by rows, for pivot rows: rStart, rCol, rVal.
	rStart  []int
	rCol    []int
	rVal    []float64
	b       []float64 // normalized right-hand sides, >= 0
	logical []int     // logical[i]: row i's column in the cold basis

	basis     []int     // basis[r]: the column basic in row r
	pos       []int     // pos[j]: the row column j is basic in, or -1
	xB        []float64 // xB[r]: the value of basis[r]
	out       []bool    // columns that never enter again
	redundant []bool    // rows proven redundant in phase 1: never leave, stay at 0
	cost      []float64 // the objective being optimized, per column
	d         []float64 // reduced costs against the basis
	lu        factor

	// Dense scratch: w by row, alpha and dB by basis position, y by row,
	// arow by column with its non-zero columns in touched.
	w, alpha, dB, y []float64
	arow            []float64
	touched         []int

	iterations int
	pivots     [numStages]int
	evicting   bool // inside evictArtificials, for trace
	// trace, when set (lp_test.go's lockstep dense reference; Solve leaves
	// it nil), is called before every pivot.
	trace func(s *solver, stage Stage, leave, enter int)
}

func (p *Problem) newSolver() *solver {
	n, m := len(p.names), len(p.constraints)
	s := &solver{m: m, n: n}

	// Normalized relations: a negative right-hand side negates the row
	// and flips Le/Ge. Every inequality has a slack, every row not Le
	// after normalizing an artificial.
	ops := make([]Op, m)
	nSlack, nArt, nTerms := 0, 0, 0
	for i, c := range p.constraints {
		op := c.op
		if c.rhs < 0 && op != Eq {
			op = Le + Ge - op
		}
		ops[i] = op
		if op != Eq {
			nSlack++
		}
		if op != Le {
			nArt++
		}
		nTerms += len(c.terms)
	}
	s.artStart = n + nSlack
	s.artEnd = s.artStart + nArt
	cols := s.artEnd

	// Rows, accumulated exactly as written (repeated terms sum), then
	// each row's slack and artificial.
	s.b = make([]float64, m)
	s.logical = make([]int, m)
	s.rStart = make([]int, m+1)
	s.rCol = make([]int, 0, nTerms+nSlack+nArt)
	s.rVal = make([]float64, 0, nTerms+nSlack+nArt)
	acc := make([]float64, n)
	seen := make([]bool, n)
	var touched []int
	slack, art := n, s.artStart
	for i, c := range p.constraints {
		touched = touched[:0]
		for _, t := range c.terms {
			if !seen[t.Var] {
				seen[t.Var] = true
				touched = append(touched, t.Var)
			}
			acc[t.Var] += t.Coef
		}
		sign := 1.0
		s.b[i] = c.rhs
		if c.rhs < 0 {
			sign, s.b[i] = -1, -c.rhs
		}
		for _, v := range touched {
			if a := acc[v]; a != 0 {
				s.rCol = append(s.rCol, v)
				s.rVal = append(s.rVal, sign*a)
			}
			acc[v], seen[v] = 0, false
		}
		switch ops[i] {
		case Le:
			s.rCol, s.rVal = append(s.rCol, slack), append(s.rVal, 1)
			s.logical[i] = slack
			slack++
		case Ge:
			s.rCol, s.rVal = append(s.rCol, slack), append(s.rVal, -1)
			slack++
		}
		if ops[i] != Le {
			s.rCol, s.rVal = append(s.rCol, art), append(s.rVal, 1)
			s.logical[i] = art
			art++
		}
		s.rStart[i+1] = len(s.rCol)
	}

	// The same matrix by columns.
	s.colStart = make([]int, cols+1)
	for _, j := range s.rCol {
		s.colStart[j+1]++
	}
	for j := 0; j < cols; j++ {
		s.colStart[j+1] += s.colStart[j]
	}
	s.rowIdx = make([]int, len(s.rCol))
	s.val = make([]float64, len(s.rCol))
	fill := append([]int(nil), s.colStart[:cols]...)
	for i := 0; i < m; i++ {
		for k := s.rStart[i]; k < s.rStart[i+1]; k++ {
			j := s.rCol[k]
			s.rowIdx[fill[j]], s.val[fill[j]] = i, s.rVal[k]
			fill[j]++
		}
	}

	// The working vectors, carved from one allocation per element type:
	// small programs are solved often, and their solve is short.
	ints := make([]int, m+cols)
	s.basis, s.pos = ints[:m:m], ints[m:]
	bools := make([]bool, m+cols)
	s.redundant, s.out = bools[:m:m], bools[m:]
	fl := make([]float64, 5*m+3*cols)
	carve := func(n int) []float64 {
		v := fl[:n:n]
		fl = fl[n:]
		return v
	}
	s.xB, s.w, s.alpha, s.dB, s.y = carve(m), carve(m), carve(m), carve(m), carve(m)
	s.cost, s.d, s.arow = carve(cols), carve(cols), carve(cols)
	s.lu.init(m)
	return s
}

// coldBasis installs the all-logical start: each Le row on its slack,
// every other row on its artificial.
func (s *solver) coldBasis() {
	for j := range s.pos {
		s.pos[j] = -1
	}
	clear(s.out)
	clear(s.redundant)
	for i, b := range s.logical {
		s.basis[i] = b
		s.pos[b] = i
	}
	if err := s.refactor(); err != nil {
		panic("lp: logical basis singular") // ±1 on the diagonal
	}
}

// setCost loads objective c (structural columns; zero elsewhere).
func (s *solver) setCost(c []float64) {
	clear(s.cost)
	copy(s.cost, c)
}

// objective is c_B·x_B for the current cost.
func (s *solver) objective() float64 {
	var z float64
	for r, b := range s.basis {
		z += s.cost[b] * s.xB[r]
	}
	return z
}

// price computes the duals y = c_B·B⁻¹ and the reduced costs of the
// columns below colLimit that may enter; every other column's is 0.
func (s *solver) price(colLimit int) {
	for r, b := range s.basis {
		s.dB[r] = s.cost[b]
	}
	s.lu.btran(s.dB, s.y)
	for j := 0; j < colLimit; j++ {
		if s.pos[j] >= 0 || s.out[j] {
			s.d[j] = 0
			continue
		}
		dj := s.cost[j]
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			dj -= s.y[s.rowIdx[k]] * s.val[k]
		}
		s.d[j] = dj
	}
}

// ftran leaves B⁻¹a_j in s.alpha.
func (s *solver) ftran(j int) {
	for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
		s.w[s.rowIdx[k]] = s.val[k]
	}
	s.lu.ftran(s.w, s.alpha)
}

// rowOf leaves row r of B⁻¹ in s.y: the tableau row r is then s.y·a_j.
func (s *solver) rowOf(r int) {
	clear(s.dB)
	s.dB[r] = 1
	s.lu.btran(s.dB, s.y)
}

// dotCol is y·a_j.
func (s *solver) dotCol(y []float64, j int) float64 {
	var v float64
	for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
		v += y[s.rowIdx[k]] * s.val[k]
	}
	return v
}

// primal runs simplex pivots until optimality, considering entering
// columns in [0, colLimit). Dantzig pricing normally; pure Bland's rule
// once the pivot count passes a stall threshold, which guarantees
// termination.
func (s *solver) primal(colLimit int, stage Stage) error {
	m := s.m
	maxIter := 200*(m+colLimit) + 2000
	blandAfter := 20*(m+colLimit) + 500
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return ErrIterationLimit
		}
		bland := iter > blandAfter
		if iter == 0 || s.lu.etas() == 0 {
			s.price(colLimit) // afresh at the start and after a refactorization
		}

		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < colLimit; j++ {
			if dj := s.d[j]; dj < -eps {
				if bland {
					enter = j
					break
				}
				if dj < best {
					best = dj
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}

		// Leaving row by minimum ratio; ties to the smallest basis column
		// (lexicographic enough for Bland).
		s.ftran(enter)
		leave := -1
		var bestRatio float64
		for i, aij := range s.alpha {
			if aij <= eps || s.redundant[i] {
				continue
			}
			ratio := s.xB[i] / aij
			if leave < 0 || ratio < bestRatio-eps ||
				(math.Abs(ratio-bestRatio) <= eps && s.basis[i] < s.basis[leave]) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		s.pivotRow(leave)
		s.updateDuals(leave, enter)
		if err := s.pivot(leave, enter, stage); err != nil {
			return err
		}
	}
}

// pivotRow leaves row r of the tableau, (B⁻¹)_r·A, in s.arow, its
// non-zero columns listed in s.touched: a sum over the rows of A where
// (B⁻¹)_r is non-zero.
func (s *solver) pivotRow(r int) {
	s.rowOf(r)
	s.touched = s.touched[:0]
	for i, yi := range s.y {
		if yi == 0 {
			continue
		}
		for k := s.rStart[i]; k < s.rStart[i+1]; k++ {
			j := s.rCol[k]
			if s.arow[j] == 0 {
				s.touched = append(s.touched, j)
			}
			s.arow[j] += yi * s.rVal[k]
			if s.arow[j] == 0 {
				s.arow[j] = math.SmallestNonzeroFloat64 // keep it listed once
			}
		}
	}
}

// updateDuals moves the reduced costs to the basis after column enter
// replaces row leave's (the pivot row in s.arow, B⁻¹a_enter in s.alpha)
// and clears s.arow.
func (s *solver) updateDuals(leave, enter int) {
	theta := s.d[enter] / s.alpha[leave]
	left := s.basis[leave]
	for _, j := range s.touched {
		if !s.out[j] && (s.pos[j] < 0 || j == left) {
			s.d[j] -= theta * s.arow[j]
		}
		s.arow[j] = 0
	}
	s.d[enter] = 0
	s.d[left] = -theta
	if left >= s.artStart {
		s.d[left] = 0 // an artificial that leaves never enters again
	}
}

// pivot makes column enter (whose B⁻¹a is in s.alpha) basic in row
// leave: the basic values move along alpha and the factorization gains
// an eta, or B is factorized afresh once the eta file is refactorEvery
// long or outgrows the LU.
func (s *solver) pivot(leave, enter int, stage Stage) error {
	if s.trace != nil {
		s.trace(s, stage, leave, enter)
	}
	theta := s.xB[leave] / s.alpha[leave]
	for i, a := range s.alpha {
		if a != 0 && i != leave && !s.redundant[i] {
			s.xB[i] -= theta * a
		}
	}
	s.xB[leave] = theta
	left := s.basis[leave]
	if left >= s.artStart {
		// An artificial leaving the basis is never needed again.
		s.out[left] = true
	}
	s.pos[left] = -1
	s.basis[leave] = enter
	s.pos[enter] = leave
	s.iterations++
	s.pivots[stage]++
	if s.lu.etas() >= refactorEvery || s.lu.etaGrown() {
		return s.refactor()
	}
	s.lu.addEta(leave, s.alpha)
	return nil
}

// refactor factorizes B afresh and recomputes x_B = B⁻¹b from it.
func (s *solver) refactor() error {
	if !s.lu.factorize(s) {
		return errSingular
	}
	copy(s.w, s.b)
	s.lu.ftran(s.w, s.xB)
	for i, r := range s.redundant {
		if r {
			s.xB[i] = 0
		}
	}
	return nil
}

// evictArtificials pivots any artificial variable still basic (at zero
// level after a feasible phase 1) out of the basis, or marks its row
// redundant.
func (s *solver) evictArtificials() error {
	s.evicting = true
	defer func() { s.evicting = false }()
rows:
	for i := range s.basis {
		if s.basis[i] < s.artStart {
			continue
		}
		s.rowOf(i)
		for j := 0; j < s.artStart; j++ {
			if s.pos[j] < 0 && math.Abs(s.dotCol(s.y, j)) > eps {
				s.ftran(j)
				if err := s.pivot(i, j, StagePhase1); err != nil {
					return err
				}
				continue rows
			}
		}
		// Redundant row: it can never constrain phase 2. The artificial
		// stays basic at level 0 and never leaves.
		s.redundant[i] = true
		s.xB[i] = 0
	}
	return nil
}

// fixOffFace fixes at zero every column with a positive reduced cost for
// the objective just optimized (s.d is its last pricing): raised, such a
// column would leave the optimal face. A pivot on a column left (reduced
// cost zero within eps) keeps the others' as they were, so no later pivot
// leaves the face.
func (s *solver) fixOffFace() {
	for j, dj := range s.d[:s.artStart] {
		if dj > eps {
			s.out[j] = true
		}
	}
}

// warm installs start as the basis and makes it optimal for the first
// objective: factorize, check dual feasibility, then dual simplex pivots
// until x_B >= 0. It reports false, leaving the state for coldBasis to
// reset, when the start does not fit.
func (s *solver) warm(start []int, c []float64) bool {
	if len(start) != s.m {
		return false
	}
	for j := range s.pos {
		s.pos[j] = -1
	}
	for r, j := range start {
		if j < 0 || j >= s.artStart || s.pos[j] >= 0 {
			return false
		}
		s.basis[r] = j
		s.pos[j] = r
	}
	if s.refactor() != nil {
		return false
	}
	s.setCost(c)
	s.price(s.artStart)
	for _, dj := range s.d[:s.artStart] {
		if dj < -dualTol {
			return false
		}
	}
	return s.dual()
}

// dual runs dual simplex pivots from a dual-feasible basis until it is
// primal feasible: the most negative basic value leaves, and the entering
// column keeps every reduced cost non-negative (the smallest ratio
// d_j/−α_rj; ties to the larger |α_rj|). It reports false when a row has
// no entering column (the program is infeasible; the cold path says so)
// or the pivots pass the stall threshold.
func (s *solver) dual() bool {
	limit := 20*(s.m+s.artStart) + 500
	for iter := 0; ; iter++ {
		if iter > limit {
			return false
		}
		leave, worst := -1, -eps
		for i, x := range s.xB {
			if x < worst && !s.redundant[i] {
				leave, worst = i, x
			}
		}
		if leave < 0 {
			return true
		}
		s.pivotRow(leave)
		enter, bestRatio, bestA := -1, 0.0, 0.0
		for _, j := range s.touched {
			if j >= s.artStart || s.pos[j] >= 0 || s.out[j] {
				continue
			}
			a := s.arow[j]
			if a >= -eps {
				continue
			}
			ratio := max(s.d[j], 0) / -a
			if enter < 0 || ratio < bestRatio-eps*1e-3 ||
				(ratio <= bestRatio+eps*1e-3 && (-a > bestA || (-a == bestA && j < enter))) {
				enter, bestRatio, bestA = j, ratio, -a
			}
		}
		if enter < 0 {
			s.clearRow()
			return false
		}
		s.ftran(enter)
		if math.Abs(s.alpha[leave]) <= eps {
			s.clearRow()
			return false // the row and column disagree: numerical trouble
		}
		s.updateDuals(leave, enter)
		if s.pivot(leave, enter, StageDual) != nil {
			return false
		}
		if s.lu.etas() == 0 {
			s.price(s.artStart)
		}
	}
}

// clearRow clears s.arow after a pivot row that was not pivoted on.
func (s *solver) clearRow() {
	for _, j := range s.touched {
		s.arow[j] = 0
	}
}

// factor is B's sparse LU factorization, P·B·Q = L·U in elimination
// order, followed by the product-form etas of the basis changes since.
// Rows of B are constraint rows; its columns are basis positions (the
// row a column is basic in).
type factor struct {
	m int
	// Elimination step k pivoted on row pivRow[k], position pivPos[k],
	// value pivVal[k]. L column k holds the multipliers of the rows it
	// eliminated, lIdx/lVal[lStart[k]:lStart[k+1]]; U row k the pivot
	// row's other entries by position, uIdx/uVal[uStart[k]:uStart[k+1]].
	pivRow, pivPos []int
	pivVal         []float64
	lStart, lIdx   []int
	lVal           []float64
	uStart, uIdx   []int
	uVal           []float64
	// Eta e replaced position ePos[e], with pivot ePiv[e] and the entering
	// column's other entries eIdx/eVal[eStart[e]:eStart[e+1]].
	ePos, eStart, eIdx []int
	ePiv, eVal         []float64

	// Factorization scratch. The active submatrix is held by columns,
	// with values (B's columns are short: a few entries each), and by
	// rows as patterns only (a load row spans many columns); both keep
	// entries of retired rows and columns, which the done flags skip.
	cols             [][]luEntry
	rowCols          [][]int
	rowCnt, colCnt   []int // active entries
	rowDone, colDone []bool
	colBuf           []luEntry
	rowBuf           []int
	colQ, rowQ       []int // singleton candidates
	// liveCols, liveRows list the active columns and rows, compacted at
	// each Markowitz search.
	liveCols, liveRows []int
}

// luEntry is one entry of an active column.
type luEntry struct {
	row int
	v   float64
}

// init sizes the factor for m rows; L and U start with room for 2m
// entries each and grow from there.
func (f *factor) init(m int) {
	nnz := 2 * m
	f.m = m
	f.cols = make([][]luEntry, m)
	f.rowCols = make([][]int, m)
	ints := make([]int, 0, 10*m+2+2*nnz)
	take := func(n int) []int {
		v := ints[len(ints) : len(ints) : len(ints)+n]
		ints = ints[:len(ints)+n]
		return v
	}
	f.rowCnt, f.colCnt = take(m)[:m], take(m)[:m]
	f.pivRow, f.pivPos, f.colQ, f.rowQ, f.liveCols, f.liveRows = take(m), take(m), take(m), take(m), take(m), take(m)
	f.lStart, f.uStart = take(m+1), take(m+1)
	f.lIdx, f.uIdx = take(nnz), take(nnz)
	floats := make([]float64, 0, m+2*nnz)
	f.pivVal, f.lVal, f.uVal = floats[0:0:m], floats[m:m:m+nnz], floats[m+nnz:m+nnz:m+2*nnz]
	done := make([]bool, 2*m)
	f.rowDone, f.colDone = done[:m:m], done[m:]
}

func (f *factor) etas() int { return len(f.ePos) }

// etaGrown reports an eta file that costs a solve more than the LU does.
func (f *factor) etaGrown() bool {
	return len(f.eIdx) > len(f.lIdx)+len(f.uIdx)+2*f.m
}

// addEta records the basis change at position p, alpha = B⁻¹a_enter.
func (f *factor) addEta(p int, alpha []float64) {
	if len(f.eStart) == 0 {
		f.eStart = append(f.eStart, 0)
	}
	for i, a := range alpha {
		if a != 0 && i != p {
			f.eIdx = append(f.eIdx, i)
			f.eVal = append(f.eVal, a)
		}
	}
	f.eStart = append(f.eStart, len(f.eIdx))
	f.ePos = append(f.ePos, p)
	f.ePiv = append(f.ePiv, alpha[p])
}

const (
	// luPivotTol is threshold pivoting's bound: a pivot is at least this
	// share of the largest entry in its column of the active submatrix.
	luPivotTol = 0.1
	// luTiny is the smallest magnitude accepted as a pivot.
	luTiny = 1e-11
)

// factorize computes the LU of the basis s.basis and empties the eta
// file. Pivots come from column singletons first, then row singletons,
// then the Markowitz count (r−1)(c−1) under threshold pivoting. It
// reports false when B is singular to working precision.
func (f *factor) factorize(s *solver) bool {
	m := f.m
	f.pivRow, f.pivPos, f.pivVal = f.pivRow[:0], f.pivPos[:0], f.pivVal[:0]
	f.lStart, f.lIdx, f.lVal = append(f.lStart[:0], 0), f.lIdx[:0], f.lVal[:0]
	f.uStart, f.uIdx, f.uVal = append(f.uStart[:0], 0), f.uIdx[:0], f.uVal[:0]
	f.ePos, f.eStart, f.eIdx, f.ePiv, f.eVal = f.ePos[:0], f.eStart[:0], f.eIdx[:0], f.ePiv[:0], f.eVal[:0]
	// Columns and row patterns are carved from two shared buffers, each
	// with its own entries' room plus two for fill; one that outgrows its
	// room moves out on append.
	const fillRoom = 2
	clear(f.rowCnt)
	nnz := 0
	for _, j := range s.basis {
		nnz += s.colStart[j+1] - s.colStart[j]
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			f.rowCnt[s.rowIdx[k]]++
		}
	}
	if n := nnz + fillRoom*m; cap(f.colBuf) < n {
		f.colBuf, f.rowBuf = make([]luEntry, n), make([]int, n)
	}
	colOff, rowOff := 0, 0
	for i := 0; i < m; i++ {
		j := s.basis[i]
		room := s.colStart[j+1] - s.colStart[j] + fillRoom
		f.cols[i] = f.colBuf[colOff : colOff : colOff+room]
		colOff += room
		room = f.rowCnt[i] + fillRoom
		f.rowCols[i] = f.rowBuf[rowOff : rowOff : rowOff+room]
		rowOff += room
		f.rowDone[i], f.colDone[i] = false, false
	}
	for p, j := range s.basis {
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			i := s.rowIdx[k]
			f.cols[p] = append(f.cols[p], luEntry{i, s.val[k]})
			f.rowCols[i] = append(f.rowCols[i], p)
		}
	}
	f.colQ, f.rowQ = f.colQ[:0], f.rowQ[:0]
	f.liveCols, f.liveRows = f.liveCols[:0], f.liveRows[:0]
	for i := 0; i < m; i++ {
		f.liveCols = append(f.liveCols, i)
		f.liveRows = append(f.liveRows, i)
		f.rowCnt[i] = len(f.rowCols[i])
		f.colCnt[i] = len(f.cols[i])
		if f.colCnt[i] == 1 {
			f.colQ = append(f.colQ, i)
		}
		if f.rowCnt[i] == 1 {
			f.rowQ = append(f.rowQ, i)
		}
	}
	for k := 0; k < m; k++ {
		r, c := f.choosePivot()
		if r < 0 {
			return false
		}
		f.eliminate(r, c)
	}
	return true
}

// entry returns the active value at (row i, position c), 0 when absent.
func (f *factor) entry(i, c int) float64 {
	for _, e := range f.cols[c] {
		if e.row == i {
			return e.v
		}
	}
	return 0
}

// colMax is the largest magnitude in active column c.
func (f *factor) colMax(c int) float64 {
	var big float64
	for _, e := range f.cols[c] {
		if !f.rowDone[e.row] {
			big = max(big, math.Abs(e.v))
		}
	}
	return big
}

// choosePivot picks the next pivot (row, position), or (-1, -1) when the
// active submatrix has none: B is singular.
func (f *factor) choosePivot() (int, int) {
	for len(f.colQ) > 0 {
		c := f.colQ[len(f.colQ)-1]
		f.colQ = f.colQ[:len(f.colQ)-1]
		if f.colDone[c] || f.colCnt[c] != 1 {
			continue
		}
		for _, e := range f.cols[c] {
			if !f.rowDone[e.row] {
				if math.Abs(e.v) > luTiny {
					return e.row, c
				}
				break
			}
		}
	}
	for len(f.rowQ) > 0 {
		r := f.rowQ[len(f.rowQ)-1]
		f.rowQ = f.rowQ[:len(f.rowQ)-1]
		if f.rowDone[r] || f.rowCnt[r] != 1 {
			continue
		}
		for _, c := range f.rowCols[r] {
			if !f.colDone[c] {
				if a := math.Abs(f.entry(r, c)); a > luTiny && a >= luPivotTol*f.colMax(c) {
					return r, c
				}
				break
			}
		}
	}
	// Markowitz, searched where it is cheapest: the active columns of the
	// fewest entries and the active rows of the fewest.
	minC, minR := f.m+1, f.m+1
	live := f.liveCols[:0]
	for _, c := range f.liveCols {
		if !f.colDone[c] {
			live = append(live, c)
			minC = min(minC, f.colCnt[c])
		}
	}
	f.liveCols = live
	live = f.liveRows[:0]
	for _, i := range f.liveRows {
		if !f.rowDone[i] {
			live = append(live, i)
			minR = min(minR, f.rowCnt[i])
		}
	}
	f.liveRows = live
	br, bc, bestCost, bestA := -1, -1, 0, 0.0
	consider := func(i, c int, v, big float64) {
		a := math.Abs(v)
		if a <= luTiny || a < luPivotTol*big {
			return
		}
		cost := (f.rowCnt[i] - 1) * (f.colCnt[c] - 1)
		if br < 0 || cost < bestCost || (cost == bestCost && a > bestA) {
			br, bc, bestCost, bestA = i, c, cost, a
		}
	}
	scanCol := func(c int) {
		big := f.colMax(c)
		for _, e := range f.cols[c] {
			if !f.rowDone[e.row] {
				consider(e.row, c, e.v, big)
			}
		}
	}
	for _, c := range f.liveCols {
		if f.colCnt[c] == minC {
			scanCol(c)
		}
	}
	for _, i := range f.liveRows {
		if br >= 0 && bestCost <= (minR-1)*(minC-1) {
			break // no entry can be cheaper
		}
		if f.rowCnt[i] != minR {
			continue
		}
		for _, c := range f.rowCols[i] {
			if !f.colDone[c] {
				consider(i, c, f.entry(i, c), f.colMax(c))
			}
		}
	}
	if br < 0 {
		// Every low-count entry failed the threshold: search everything.
		for _, c := range f.liveCols {
			scanCol(c)
		}
	}
	return br, bc
}

// eliminate pivots the active submatrix on (r, c): records U row and L
// column, subtracts multiples of row r from every other active row with
// an entry in column c, and retires row r and column c.
func (f *factor) eliminate(r, c int) {
	piv := f.entry(r, c)
	u0 := len(f.uIdx)
	for _, j := range f.rowCols[r] {
		if j != c && !f.colDone[j] {
			f.uIdx = append(f.uIdx, j)
			f.uVal = append(f.uVal, f.entry(r, j))
			f.colCnt[j]--
			if f.colCnt[j] == 1 {
				f.colQ = append(f.colQ, j)
			}
		}
	}
	f.uStart = append(f.uStart, len(f.uIdx))
	f.pivRow = append(f.pivRow, r)
	f.pivPos = append(f.pivPos, c)
	f.pivVal = append(f.pivVal, piv)
	f.rowDone[r], f.colDone[c] = true, true

	for _, e := range f.cols[c] {
		i := e.row
		if f.rowDone[i] {
			continue
		}
		mult := e.v / piv
		f.lIdx = append(f.lIdx, i)
		f.lVal = append(f.lVal, mult)
		f.rowCnt[i]-- // column c leaves row i
		for q := u0; q < len(f.uIdx); q++ {
			j := f.uIdx[q]
			col := f.cols[j]
			found := false
			for k := range col {
				if col[k].row == i {
					col[k].v -= mult * f.uVal[q]
					found = true
					break
				}
			}
			if !found {
				f.cols[j] = append(col, luEntry{i, -mult * f.uVal[q]})
				f.rowCols[i] = append(f.rowCols[i], j)
				f.rowCnt[i]++
				f.colCnt[j]++
			}
		}
		if f.rowCnt[i] == 1 {
			f.rowQ = append(f.rowQ, i)
		}
	}
	f.lStart = append(f.lStart, len(f.lIdx))
}

// ftran solves B·x = w for x (by position); w (by row) is consumed and
// left zeroed.
func (f *factor) ftran(w, x []float64) {
	for k, r := range f.pivRow {
		if v := w[r]; v != 0 {
			a, b := f.lStart[k], f.lStart[k+1]
			val := f.lVal[a:b]
			for q, i := range f.lIdx[a:b] {
				w[i] -= val[q] * v
			}
		}
	}
	for k := len(f.pivRow) - 1; k >= 0; k-- {
		v := w[f.pivRow[k]]
		a, b := f.uStart[k], f.uStart[k+1]
		val := f.uVal[a:b]
		for q, j := range f.uIdx[a:b] {
			v -= val[q] * x[j]
		}
		x[f.pivPos[k]] = v / f.pivVal[k]
	}
	clear(w)
	for e, p := range f.ePos {
		if v := x[p]; v != 0 {
			v /= f.ePiv[e]
			x[p] = v
			a, b := f.eStart[e], f.eStart[e+1]
			val := f.eVal[a:b]
			for q, i := range f.eIdx[a:b] {
				x[i] -= val[q] * v
			}
		}
	}
}

// btran solves y·B = d for y (by row); d (by position) is consumed.
func (f *factor) btran(d, y []float64) {
	for e := len(f.ePos) - 1; e >= 0; e-- {
		p := f.ePos[e]
		v := d[p]
		a, b := f.eStart[e], f.eStart[e+1]
		val := f.eVal[a:b]
		for q, i := range f.eIdx[a:b] {
			v -= val[q] * d[i]
		}
		d[p] = v / f.ePiv[e]
	}
	for k, c := range f.pivPos {
		z := d[c] / f.pivVal[k]
		y[f.pivRow[k]] = z
		if z != 0 {
			a, b := f.uStart[k], f.uStart[k+1]
			val := f.uVal[a:b]
			for q, j := range f.uIdx[a:b] {
				d[j] -= val[q] * z
			}
		}
	}
	for k := len(f.pivRow) - 1; k >= 0; k-- {
		a, b := f.lStart[k], f.lStart[k+1]
		if a == b {
			continue
		}
		v := y[f.pivRow[k]]
		val := f.lVal[a:b]
		for q, i := range f.lIdx[a:b] {
			v -= val[q] * y[i]
		}
		y[f.pivRow[k]] = v
	}
}
