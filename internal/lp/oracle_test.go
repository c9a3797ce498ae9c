package lp

import (
	"fmt"
	"math"
)

// The row-form dense two-phase simplex: the independent oracle for the
// production solver. It shares no code with SolveBounded or WarmSolver —
// variable bounds become ordinary rows, and every pivot sweeps the full
// tableau — so agreement between the two (TestBoundedMatchesRowBasedProperty)
// checks the sparse engine against a second implementation, not against
// itself.

// Problem is a linear program over NumVars non-negative variables, every
// restriction written as a row.
type Problem struct {
	NumVars     int
	Objective   []float64 // minimize; length NumVars
	Constraints []Constraint
}

// NewProblem returns a problem with n variables and a zero objective.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// SetObjective sets the coefficient of variable j in the minimized
// objective.
func (p *Problem) SetObjective(j int, c float64) {
	p.Objective[j] = c
}

// AddConstraint appends a row. Coefficient maps are copied.
func (p *Problem) AddConstraint(coeffs map[int]float64, rel Rel, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for j, v := range coeffs {
		cp[j] = v
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
}

// Validate checks structural sanity.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective length %d != NumVars %d", len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		for j := range c.Coeffs {
			if j < 0 || j >= p.NumVars {
				return fmt.Errorf("lp: constraint %d references variable %d", i, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has invalid RHS %v", i, c.RHS)
		}
	}
	return nil
}

// rowForm encodes a bounded problem as rows: lo ≤ x_j ≤ up becomes
// x_j ≥ lo (when lo > 0) and x_j ≤ up (when finite). Lower bounds must be
// nonnegative, since Problem's variables are.
func rowForm(p *BoundedProblem) *Problem {
	q := NewProblem(p.NumVars)
	copy(q.Objective, p.Objective)
	for _, c := range p.Constraints {
		q.AddConstraint(c.Coeffs, c.Rel, c.RHS)
	}
	for j := 0; j < p.NumVars; j++ {
		if p.Lower[j] < 0 {
			panic("rowForm: negative lower bound")
		}
		if p.Lower[j] > 0 {
			q.AddConstraint(map[int]float64{j: 1}, GE, p.Lower[j])
		}
		if !math.IsInf(p.Upper[j], 1) {
			q.AddConstraint(map[int]float64{j: 1}, LE, p.Upper[j])
		}
	}
	return q
}

// Solve runs two-phase primal simplex on the dense tableau. The returned
// solution's X is valid only when Status == Optimal.
func Solve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	return newTableau(p).solve(p.Objective, p.NumVars)
}

// solve runs the two-phase driver on a constructed tableau.
func (t *tableau) solve(objective []float64, nVars int) (Solution, error) {
	// Phase 1: minimize artificial sum.
	if t.numArtificial > 0 {
		t.setPhase1Objective()
		st := t.iterate()
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		if t.objValue() > 1e-7 {
			return Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		t.driveOutArtificials()
	}
	// Phase 2: original objective.
	t.setPhase2Objective(objective)
	st := t.iterate()
	switch st {
	case Unbounded:
		return Solution{Status: Unbounded, Iters: t.iters}, nil
	case IterLimit:
		return Solution{Status: IterLimit, Iters: t.iters}, nil
	}
	x := make([]float64, nVars)
	for r, bj := range t.basis {
		if bj < nVars {
			x[bj] = t.rhs(r)
		}
	}
	return Solution{Status: Optimal, X: x, Objective: t.objValue(), Iters: t.iters}, nil
}

// tableau is the dense simplex tableau. Columns: structural vars
// [0,nStruct), slack/surplus [nStruct,nStruct+nSlack), artificials after
// that; the final column is the RHS. The objective row is rows[m].
type tableau struct {
	rows          [][]float64 // (m+1) × (nTotal+1)
	basis         []int       // basic variable per constraint row
	nStruct       int
	nSlack        int
	numArtificial int
	nTotal        int
	artCols       []int // column index of each artificial
	iters         int
	maxIters      int
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	nStruct := p.NumVars
	// Count slacks and artificials.
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		b := c.RHS
		rel := c.Rel
		if b < 0 { // normalize to b ≥ 0 by negating the row
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	nTotal := nStruct + nSlack + nArt
	t := &tableau{
		rows:          make([][]float64, m+1),
		basis:         make([]int, m),
		nStruct:       nStruct,
		nSlack:        nSlack,
		numArtificial: nArt,
		nTotal:        nTotal,
		maxIters:      20000 + 200*(m+nTotal),
	}
	for i := range t.rows {
		t.rows[i] = make([]float64, nTotal+1)
	}
	slackCol := nStruct
	artCol := nStruct + nSlack
	for i, c := range p.Constraints {
		row := t.rows[i]
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j, v := range c.Coeffs {
			row[j] += sign * v
		}
		row[nTotal] = sign * c.RHS
		switch rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			t.artCols = append(t.artCols, artCol)
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			t.artCols = append(t.artCols, artCol)
			artCol++
		}
	}
	return t
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

func (t *tableau) m() int { return len(t.rows) - 1 }

func (t *tableau) rhs(r int) float64 { return t.rows[r][t.nTotal] }

// objValue returns the current objective value (the tableau keeps -z in the
// bottom-right corner).
func (t *tableau) objValue() float64 { return -t.rows[t.m()][t.nTotal] }

// setPhase1Objective installs min Σ artificials and eliminates basic
// artificials from the objective row.
func (t *tableau) setPhase1Objective() {
	obj := t.rows[t.m()]
	for j := range obj {
		obj[j] = 0
	}
	isArt := make(map[int]bool, len(t.artCols))
	for _, c := range t.artCols {
		obj[c] = 1
		isArt[c] = true
	}
	for r, bj := range t.basis {
		if isArt[bj] {
			t.eliminate(r)
		}
	}
}

// setPhase2Objective installs the original objective (artificial columns get
// +∞-like cost by being excluded from entering) and eliminates basic
// contributions.
func (t *tableau) setPhase2Objective(c []float64) {
	obj := t.rows[t.m()]
	for j := range obj {
		obj[j] = 0
	}
	copy(obj, c)
	for r, bj := range t.basis {
		if math.Abs(obj[bj]) > 0 {
			t.eliminate(r)
		}
	}
}

// eliminate zeroes the objective-row entry of the basic variable of row r.
func (t *tableau) eliminate(r int) {
	obj := t.rows[t.m()]
	factor := obj[t.basis[r]]
	//socllint:ignore floateq structural zero: entry was assigned zero by elimination, not approximately computed
	if factor == 0 {
		return
	}
	row := t.rows[r]
	for j := range obj {
		obj[j] -= factor * row[j]
	}
}

// iterate runs simplex pivots until optimality, unboundedness or the
// iteration cap. Artificial columns never re-enter the basis.
func (t *tableau) iterate() Status {
	isArt := make([]bool, t.nTotal)
	for _, c := range t.artCols {
		isArt[c] = true
	}
	blandAfter := t.maxIters / 2
	for ; t.iters < t.maxIters; t.iters++ {
		obj := t.rows[t.m()]
		enter := -1
		if t.iters < blandAfter {
			// Dantzig: most negative reduced cost.
			best := -eps
			for j := 0; j < t.nTotal; j++ {
				if !isArt[j] && obj[j] < best {
					best, enter = obj[j], j
				}
			}
		} else {
			// Bland: first negative reduced cost (anti-cycling).
			for j := 0; j < t.nTotal; j++ {
				if !isArt[j] && obj[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < t.m(); r++ {
			a := t.rows[r][enter]
			if a > eps {
				ratio := t.rhs(r) / a
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave == -1 || t.basis[r] < t.basis[leave])) {
					bestRatio, leave = ratio, r
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return IterLimit
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for r := range t.rows {
		if r == row {
			continue
		}
		f := t.rows[r][col]
		//socllint:ignore floateq structural zero skip is an optimization; pivoting handles near-zeros via ratio tests
		if f == 0 {
			continue
		}
		tr := t.rows[r]
		for j := range tr {
			tr[j] -= f * pr[j]
		}
		tr[col] = 0 // crush fp residue on the pivot column
	}
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables out of the basis
// after phase 1 (or drops their rows when redundant).
func (t *tableau) driveOutArtificials() {
	isArt := make([]bool, t.nTotal)
	for _, c := range t.artCols {
		isArt[c] = true
	}
	for r := 0; r < t.m(); r++ {
		if !isArt[t.basis[r]] {
			continue
		}
		// Find any non-artificial column with a nonzero entry to pivot in.
		pivoted := false
		for j := 0; j < t.nStruct+t.nSlack; j++ {
			if math.Abs(t.rows[r][j]) > 1e-7 {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: basic artificial at value 0 with an all-zero
			// row. Leave it; its RHS is ~0 and it can never pivot again.
			t.rows[r][t.nTotal] = 0
		}
	}
}
