package lp

import (
	"fmt"
	"math"
)

// WarmSolver solves a sequence of bound variations of one BoundedProblem —
// the exact shape of branch-and-bound node relaxations, where the matrix A,
// the right-hand side b and the objective c never change and only variable
// bounds tighten or relax. It keeps native [lo, up] column bounds inside the
// sparse revised simplex (sparse.go), which makes warm starts possible: after
// an Optimal solve the factorized basis stays valid for any bound change, so
// a child solve moves the nonbasic variables to their new bounds, updates
// the basic values by the corresponding deltas, repairs primal feasibility
// with dual pivots when the move broke it, and resumes phase-2 pivoting.
// Phase 1 is re-entered (a cold rebuild, reusing storage) only when neither
// resume applies.
//
// Determinism contract: a solve's result is a pure function of (base problem,
// bounds, start state), and the start state is either "cold", "the final
// basis of the previous Optimal solve", or "a Snapshot". The parallel
// branch-and-bound engine in package ilp relies on this: every node's start
// state is determined by its tree position alone, so node results do not
// depend on worker scheduling.
//
// A WarmSolver is not safe for concurrent use; give each worker its own and
// share Snapshots, which are immutable once taken.
type WarmSolver struct {
	base  *BoundedProblem
	sp    sparseTableau
	ready bool // sp holds an Optimal basis for its current bounds
	// Stats counts how solves started; tests assert the warm path is
	// actually exercised.
	Stats WarmStats
}

// WarmStats counts solve starts by kind.
type WarmStats struct {
	Warm int // resumed phase 2 from the previous basis
	Dual int // bound change broke primal feasibility; dual pivots repaired it
	Cold int // rebuilt from scratch (phase 1), reusing storage
}

// warmFeasTol is the primal-feasibility tolerance deciding whether the
// parent basis survives a bound change; it matches the phase-1 feasibility
// threshold so warm and cold starts agree on what "feasible" means.
const warmFeasTol = 1e-7

// NewWarmSolver validates the base problem (bounds are supplied per solve,
// so only the rows and objective are checked here) and returns a solver with
// no basis yet — the first SolveWithBounds is a cold start.
func NewWarmSolver(base *BoundedProblem) (*WarmSolver, error) {
	if base == nil {
		return nil, fmt.Errorf("lp: nil problem")
	}
	if base.NumVars <= 0 {
		return nil, fmt.Errorf("lp: no variables")
	}
	if len(base.Objective) != base.NumVars {
		return nil, fmt.Errorf("lp: objective length %d != NumVars %d", len(base.Objective), base.NumVars)
	}
	for i, c := range base.Constraints {
		for j := range c.Coeffs {
			if j < 0 || j >= base.NumVars {
				return nil, fmt.Errorf("lp: constraint %d references variable %d", i, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return nil, fmt.Errorf("lp: constraint %d has invalid RHS %v", i, c.RHS)
		}
	}
	w := &WarmSolver{base: base}
	w.sp.a = newCSC(base)
	return w, nil
}

// SolveWithBounds solves the base problem under the given variable bounds
// (the base's own Lower/Upper are ignored): a warm resume when the previous
// Optimal basis survives the bound change, or dual pivots repair it, and a
// cold two-phase solve otherwise. lower/upper are only read.
func (w *WarmSolver) SolveWithBounds(lower, upper []float64) (Solution, error) {
	n := w.base.NumVars
	if len(lower) != n || len(upper) != n {
		return Solution{}, fmt.Errorf("lp: bounds length %d/%d != NumVars %d", len(lower), len(upper), n)
	}
	for j := 0; j < n; j++ {
		if math.IsInf(lower[j], 0) || math.IsNaN(lower[j]) || math.IsNaN(upper[j]) {
			return Solution{}, fmt.Errorf("lp: invalid bounds on variable %d", j)
		}
		if lower[j] > upper[j] {
			return Solution{}, fmt.Errorf("lp: empty bound interval on variable %d [%v, %v]", j, lower[j], upper[j])
		}
	}
	if w.ready {
		w.sp.iters = 0
		resumed := w.warmApply(lower, upper)
		if resumed {
			w.Stats.Warm++
		} else if w.sp.dualResume() {
			// Bound tightening broke primal feasibility but dual pivots
			// repaired it on the existing factorization.
			resumed = true
			w.Stats.Dual++
		}
		if resumed {
			st := w.sp.iterate()
			if st == Optimal {
				return w.extractSolution(), nil
			}
			// Unbounded can legitimately appear when bounds were relaxed;
			// IterLimit means the resumed basis cycled. Either way the tableau
			// is no longer a usable warm source.
			w.ready = false
			return Solution{Status: st, Iters: w.sp.iters}, nil
		}
	}
	w.ready = false
	w.Stats.Cold++
	return w.coldSolve(lower, upper)
}

// warmApply moves the tableau to (lower, upper): nonbasic columns shift
// to their new bound values, with the basic-value correction applied as one
// FTRAN of the accumulated column deltas. It reports whether the basis is
// still primal feasible; when it is not, the caller tries the dual resume
// and then a cold start.
func (w *WarmSolver) warmApply(lower, upper []float64) bool {
	t := &w.sp
	m := t.m()
	acc := t.rhsv
	for r := 0; r < m; r++ {
		acc[r] = 0
	}
	any := false
	for j := 0; j < t.nStruct; j++ {
		nl, nu := lower[j], upper[j]
		ol, ou := t.lower[j], t.upper[j]
		//socllint:ignore floateq bound values are copied verbatim between nodes; unchanged bounds compare bitwise equal
		if nl == ol && nu == ou {
			continue
		}
		if !t.inBasis[j] {
			oldv, newv := ol, nl
			if t.atUpper[j] {
				oldv = ou
				if math.IsInf(nu, 1) {
					t.atUpper[j] = false // upper bound vanished; park at lower
					newv = nl
				} else {
					newv = nu
				}
			}
			//socllint:ignore floateq structural zero delta: the bound value was copied, not computed; only a literal move needs the RHS update
			if d := newv - oldv; d != 0 {
				any = true
				t.colAddScaled(j, d, acc)
			}
		}
		t.lower[j], t.upper[j] = nl, nu
	}
	if any {
		t.ftran(acc)
		for r := 0; r < m; r++ {
			//socllint:ignore floateq structural zero skip: subtracting 0 never changes bits
			if acc[r] != 0 {
				t.val[r] -= acc[r]
			}
		}
	}
	for r := 0; r < m; r++ {
		bj := t.basis[r]
		if t.val[r] < t.lower[bj]-warmFeasTol {
			return false
		}
		if up := t.upper[bj]; !math.IsInf(up, 1) && t.val[r] > up+warmFeasTol {
			return false
		}
		// A basic artificial pushed off zero means the rows themselves became
		// inconsistent under the new bounds; only phase 1 can decide that.
		if t.isArt[bj] && t.val[r] > warmFeasTol {
			return false
		}
	}
	return true
}

// coldSolve rebuilds the tableau from scratch under the given bounds
// (two phases), reusing storage from previous solves.
func (w *WarmSolver) coldSolve(lower, upper []float64) (Solution, error) {
	t := &w.sp
	t.build(w.base, lower, upper)
	if t.numArtificial > 0 {
		t.setPhase(true, nil)
		st := t.iterate()
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		if t.infeasibility() > warmFeasTol {
			return Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		t.driveOutArtificials()
	}
	t.setPhase(false, w.base.Objective)
	switch t.iterate() {
	case Unbounded:
		return Solution{Status: Unbounded, Iters: t.iters}, nil
	case IterLimit:
		return Solution{Status: IterLimit, Iters: t.iters}, nil
	}
	return w.extractSolution(), nil
}

// extractSolution reads the structural solution off an Optimal tableau and
// marks the solver warm-ready. The objective is recomputed from x (not
// tracked through the pivots) so warm chains cannot drift.
func (w *WarmSolver) extractSolution() Solution {
	t := &w.sp
	x := make([]float64, w.base.NumVars)
	for j := range x {
		if t.atUpper[j] && !t.inBasis[j] {
			x[j] = t.upper[j]
		} else {
			x[j] = t.lower[j]
		}
	}
	for r, bj := range t.basis {
		if bj < len(x) {
			x[bj] = t.val[r]
		}
	}
	canonZeros(x)
	obj := 0.0
	for j, c := range w.base.Objective {
		obj += c * x[j]
	}
	w.ready = true
	return Solution{Status: Optimal, X: x, Objective: obj, Iters: t.iters}
}

// canonZeros rewrites -0 entries to +0, so the sign of an exact zero — which
// depends on whether a basic value came from a pivot update or an FTRAN
// recomputation — never leaks into reported solutions.
func canonZeros(x []float64) {
	for j, v := range x {
		//socllint:ignore floateq the whole point is the exact zero: v == 0 is true for -0, and the rewrite normalizes its sign bit
		if v == 0 {
			x[j] = 0
		}
	}
}

// WarmSnapshot is an immutable copy of a WarmSolver's tableau state, taken
// after an Optimal solve. Restoring it puts a solver (typically a different
// worker's) into exactly that state, so warm starts from a shared ancestor —
// the root relaxation in the parallel branch-and-bound — are reproducible
// regardless of which worker performs them.
type WarmSnapshot struct {
	sp sparseTableau
}

// Snapshot deep-copies the current tableau state. Returns nil when the
// solver holds no Optimal basis (callers then simply cold-start instead).
// Snapshots are cheap: the constraint matrix and the eta columns are shared
// immutably, so the copy is the basis/bounds state plus eta headers.
func (w *WarmSolver) Snapshot() *WarmSnapshot {
	return w.SnapshotTo(nil)
}

// SnapshotTo is Snapshot writing into recycled storage: when s is non-nil its
// arrays are reused (the branch-and-bound engine pools per-branch parent
// snapshots through this). A nil s allocates. Returns nil when the solver
// holds no Optimal basis, leaving s untouched.
func (w *WarmSolver) SnapshotTo(s *WarmSnapshot) *WarmSnapshot {
	if !w.ready {
		return nil
	}
	if s == nil {
		s = &WarmSnapshot{}
	}
	s.sp.copyFrom(&w.sp)
	w.sp.arenaShared = true
	return s
}

// Restore loads a snapshot into the solver, reusing its storage. The solver
// must have been created for the same base problem; a nil snapshot means
// "no basis" (the next solve cold-starts).
func (w *WarmSolver) Restore(s *WarmSnapshot) {
	if s == nil {
		w.ready = false
		return
	}
	w.sp.copyFrom(&s.sp)
	w.sp.growScratch()
	w.ready = true
}

// FactorizationResidual reports the ∞-norm of the constraint-row residuals at
// the solver's current basis point (B·x_B = b̃ rearranged into row form), and
// whether the solver holds a point to check. It is the factorization
// consistency probe behind invariant.CheckWarmFactorization.
func (w *WarmSolver) FactorizationResidual() (float64, bool) {
	if !w.ready {
		return 0, false
	}
	return w.sp.residualNorm(), true
}

// Refactorizations reports how many mid-solve eta-file rebuilds the solver
// has performed; regression tests use it to pin that the refactorization
// path is actually exercised.
func (w *WarmSolver) Refactorizations() int {
	return w.sp.refactors
}
