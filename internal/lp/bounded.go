package lp

import (
	"fmt"
	"math"
)

// BoundedProblem is a linear program with explicit variable bounds:
//
//	minimize    c·x
//	subject to  A·x {≤,=,≥} b,   lo ≤ x ≤ up
//
// Handling bounds inside the simplex (nonbasic-at-lower / nonbasic-at-upper
// states and bound flips) avoids one constraint row per bound — for the
// SoCL ILP, whose variables are all binary, this halves the basis versus a
// row-based encoding. SolveBounded is differentially tested against a dense
// row-form oracle in the package tests.
type BoundedProblem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
	Lower       []float64 // default 0
	Upper       []float64 // +Inf allowed
}

// NewBoundedProblem returns a problem with n variables, bounds [0, +Inf).
func NewBoundedProblem(n int) *BoundedProblem {
	p := &BoundedProblem{
		NumVars:   n,
		Objective: make([]float64, n),
		Lower:     make([]float64, n),
		Upper:     make([]float64, n),
	}
	for i := range p.Upper {
		p.Upper[i] = math.Inf(1)
	}
	return p
}

// SetObjective sets variable j's objective coefficient.
func (p *BoundedProblem) SetObjective(j int, c float64) { p.Objective[j] = c }

// SetBounds sets lo ≤ x_j ≤ up.
func (p *BoundedProblem) SetBounds(j int, lo, up float64) {
	p.Lower[j] = lo
	p.Upper[j] = up
}

// AddConstraint appends a row (coefficients copied).
func (p *BoundedProblem) AddConstraint(coeffs map[int]float64, rel Rel, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for j, v := range coeffs {
		cp[j] = v
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
}

// Clone deep-copies the problem.
func (p *BoundedProblem) Clone() *BoundedProblem {
	q := NewBoundedProblem(p.NumVars)
	copy(q.Objective, p.Objective)
	copy(q.Lower, p.Lower)
	copy(q.Upper, p.Upper)
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		cp := make(map[int]float64, len(c.Coeffs))
		for j, v := range c.Coeffs {
			cp[j] = v
		}
		q.Constraints[i] = Constraint{Coeffs: cp, Rel: c.Rel, RHS: c.RHS}
	}
	return q
}

// Validate checks structural sanity.
func (p *BoundedProblem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: no variables")
	}
	if len(p.Objective) != p.NumVars || len(p.Lower) != p.NumVars || len(p.Upper) != p.NumVars {
		return fmt.Errorf("lp: objective/bounds length mismatch")
	}
	for j := 0; j < p.NumVars; j++ {
		if math.IsInf(p.Lower[j], 0) || math.IsNaN(p.Lower[j]) || math.IsNaN(p.Upper[j]) {
			return fmt.Errorf("lp: invalid bounds on variable %d", j)
		}
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("lp: empty bound interval on variable %d [%v, %v]", j, p.Lower[j], p.Upper[j])
		}
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

// SolveBounded solves the problem from scratch: a cold two-phase solve on a
// fresh WarmSolver under the problem's own bounds (NewWarmSolver validates
// the rows, SolveWithBounds the bounds).
func SolveBounded(p *BoundedProblem) (Solution, error) {
	w, err := NewWarmSolver(p)
	if err != nil {
		return Solution{}, err
	}
	return w.SolveWithBounds(p.Lower, p.Upper)
}
