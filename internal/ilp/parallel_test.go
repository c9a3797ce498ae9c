package ilp

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// Differential tests pinning the parallel engine against the serial naive
// reference: same status, same objective, and — across worker counts — the
// identical solution vector selected by the deterministic tie-break
// (DESIGN.md §9).

func sameX(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func TestEngineMatchesNaiveBounded(t *testing.T) {
	sizes := [][2]int{{3, 3}, {4, 4}}
	for _, sz := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			in := soclInstance(sz[0], sz[1], seed)
			m, _ := BuildSoCLBounded(in)
			limit := 60 * time.Second
			naive, err := solveBoundedNaive(m, Options{TimeLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			w1, err := SolveBounded(m, Options{TimeLimit: limit, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			w4, err := SolveBounded(m, Options{TimeLimit: limit, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if naive.Status != w1.Status || naive.Status != w4.Status {
				t.Fatalf("nodes=%d users=%d seed=%d: status naive=%v w1=%v w4=%v",
					sz[0], sz[1], seed, naive.Status, w1.Status, w4.Status)
			}
			if naive.Status != Optimal {
				continue
			}
			// The reference cold-solves every node on a fresh solver while the
			// engine resumes warm from parent bases; the pivot paths differ,
			// so objectives agree to LP tolerance, not bitwise.
			if math.Abs(naive.Objective-w1.Objective) > 1e-6 || math.Abs(naive.Objective-w4.Objective) > 1e-6 {
				t.Fatalf("nodes=%d users=%d seed=%d: objective naive=%v w1=%v w4=%v",
					sz[0], sz[1], seed, naive.Objective, w1.Objective, w4.Objective)
			}
			if !sameX(w1.X, w4.X) {
				t.Fatalf("nodes=%d users=%d seed=%d: worker count changed the incumbent:\nw1=%v\nw4=%v",
					sz[0], sz[1], seed, w1.X, w4.X)
			}
		}
	}
}

// The knapsack fixture has a unique optimum; every path must find it.
func TestEngineKnapsackAllWorkerCounts(t *testing.T) {
	build := func() *BoundedMIP {
		p := lp.NewBoundedProblem(3)
		p.SetObjective(0, -10)
		p.SetObjective(1, -13)
		p.SetObjective(2, -7)
		p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
		return binaryMIP(p)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := SolveBounded(build(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || math.Abs(res.Objective-(-20)) > 1e-6 {
			t.Fatalf("workers=%d: status=%v objective=%v", workers, res.Status, res.Objective)
		}
		if res.X[1] < 0.5 || res.X[2] < 0.5 || res.X[0] > 0.5 {
			t.Fatalf("workers=%d: x = %v, want [0 1 1]", workers, res.X)
		}
	}
}

// Engine must honor the global node limit across workers (the shared counter
// may overshoot transiently; the reported count must not).
func TestEngineNodeLimit(t *testing.T) {
	in := soclInstance(4, 5, 1)
	m, _ := BuildSoCLBounded(in)
	res, err := SolveBounded(m, Options{MaxNodes: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 10 {
		t.Fatalf("nodes = %d > limit 10", res.Nodes)
	}
	if res.Status == Optimal && res.Nodes >= 10 {
		t.Fatalf("claimed optimal at the node limit: %+v", res)
	}
}

// Infeasible and integer-infeasible models must report the same status
// through the engine as through the naive search.
func TestEngineInfeasibleStatuses(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 1)
	// LP-feasible but integer-infeasible: 2x = 1 with x integer.
	p2 := lp.NewBoundedProblem(1)
	p2.SetObjective(0, 1)
	p2.AddConstraint(map[int]float64{0: 2}, lp.EQ, 1)
	for _, m := range []*BoundedMIP{
		{Prob: p, Integer: []bool{true}},
		{Prob: p2, Integer: []bool{true}},
	} {
		naive, err := solveBoundedNaive(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveBounded(m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if naive.Status != Infeasible || res.Status != Infeasible {
			t.Fatalf("status naive=%v engine=%v, want infeasible", naive.Status, res.Status)
		}
	}
}

// fig2Instance builds a Fig. 2 point as the fig2 experiment does.
func fig2Instance(nodes, users int, seed int64) *model.Instance {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		panic(err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}
}

// The dual resume repairs the node LPs of the Fig. 2 trees where stand-alone
// bound flips used to cycle into cold starts: at most the root and one
// infeasible node cold-start, and the trees keep their sizes.
func TestFig2NodesResumeWithoutColdStarts(t *testing.T) {
	for _, c := range []struct {
		nodes, users int
		seed         int64
		bbNodes      int
	}{{6, 10, 1, 23}, {6, 12, 2, 37}} {
		m, _ := BuildSoCLBounded(fig2Instance(c.nodes, c.users, c.seed))
		res, err := SolveBounded(m, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || res.Nodes != c.bbNodes {
			t.Fatalf("%dx%d seed %d: status %v nodes %d, want optimal at %d", c.nodes, c.users, c.seed, res.Status, res.Nodes, c.bbNodes)
		}
		if res.Starts.Cold > 2 || res.Starts.Dual == 0 {
			t.Fatalf("%dx%d seed %d: node LP starts %+v, want ≤ 2 cold and dual resumes in use", c.nodes, c.users, c.seed, res.Starts)
		}
	}
}
