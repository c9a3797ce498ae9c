// Package lp implements a bounded-variable sparse revised simplex for linear
// programs in the form
//
//	minimize    c·x
//	subject to  A·x {≤,=,≥} b,   lo ≤ x ≤ up
//
// It is the foundation of this repository's Gurobi substitution (see
// DESIGN.md): package ilp builds a branch-and-bound MILP solver on top of
// it, and package opt cross-validates its specialized exact solver against
// it. SolveBounded is the one-shot solve; WarmSolver re-solves a problem
// under changing variable bounds from the previous basis, which is the
// shape of branch-and-bound node relaxations. Pivoting uses Dantzig's rule
// with a Bland fallback for anti-cycling.
package lp

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return "?"
	}
}

// Constraint is one row: Σ Coeffs[j]·x_j  Rel  RHS.
type Constraint struct {
	Coeffs map[int]float64
	Rel    Rel
	RHS    float64
}

// Solution is the result of a solve. X is valid only when Status ==
// Optimal.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Iters     int
}

const eps = 1e-9
