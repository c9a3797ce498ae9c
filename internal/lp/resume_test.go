package lp_test

import (
	"math"
	"testing"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// branchStep is one branching decision on a B&B path: variable v's upper
// bound drops to b (down) or its lower bound rises to b (up).
type branchStep struct {
	v  int
	up bool
	b  float64
}

// Nodes of the Fig. 2 6x10 seed 1 ILP tree (ilp.BuildSoCLBounded column
// indices) where the dual resume used to take stand-alone bound flips: the
// entering column was left dual infeasible at its opposite bound, the flips
// ping-ponged between two rows until the 4·(m+nTotal) step cap, and the node
// fell back to a cold start.
var cyclingNodes = [][]branchStep{
	{{70, false, 0}},
	{{70, true, 1}, {8, true, 1}},
	{{70, true, 1}, {8, false, 0}, {44, false, 0}, {47, true, 1}},
}

func fig2MIP(t *testing.T, nodes, users int, seed int64) *ilp.BoundedMIP {
	t.Helper()
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ilp.BuildSoCLBounded(&model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000})
	return m
}

// Replaying each path from the root relaxation (every node warm from its
// parent, as the B&B engine does), the last node resumes by dual pivots well
// within the step cap, never cold-starts, and matches a cold solve.
func TestDualResumeDoesNotCycle(t *testing.T) {
	m := fig2MIP(t, 6, 10, 1)
	p := m.Prob
	stepCap := 4 * (len(p.Constraints) + p.NumVars)
	for _, path := range cyclingNodes {
		ws, err := lp.NewWarmSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		if sol, err := ws.SolveWithBounds(lower, upper); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("root: %v %v", sol.Status, err)
		}
		var sol lp.Solution
		for i, s := range path {
			if s.up {
				lower[s.v] = s.b
			} else {
				upper[s.v] = s.b
			}
			before := ws.Stats
			if sol, err = ws.SolveWithBounds(lower, upper); err != nil {
				t.Fatal(err)
			}
			if i < len(path)-1 {
				continue
			}
			if ws.Stats.Dual != before.Dual+1 || ws.Stats.Cold != before.Cold {
				t.Fatalf("path %v: starts %+v -> %+v, want one dual resume and no cold start", path, before, ws.Stats)
			}
			if sol.Iters > stepCap/10 {
				t.Fatalf("path %v: %d pivots, step cap %d", path, sol.Iters, stepCap)
			}
		}
		cold, err := lp.SolveBounded(&lp.BoundedProblem{
			NumVars: p.NumVars, Objective: p.Objective, Constraints: p.Constraints,
			Lower: lower, Upper: upper,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != cold.Status || math.Abs(sol.Objective-cold.Objective) > model.ObjTol*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("path %v: resumed %v %v, cold %v %v", path, sol.Status, sol.Objective, cold.Status, cold.Objective)
		}
	}
}
