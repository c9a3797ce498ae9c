package opt

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/topology"
)

// lowerBoundScratch is the from-scratch bound the incremental one replaced:
// every service's latency floor recomputed from the fixing state at every
// node. It is the oracle the cached terms must match bitwise.
func lowerBoundScratch(s *solver) float64 {
	// Budget feasibility of the cheapest completion.
	cost := s.costUsed
	for si := range s.used {
		if s.instCnt[si] == 0 {
			if s.allowCnt[si] == 0 {
				return math.Inf(1) // service can never get an instance
			}
			cost += s.kappa[si]
		}
	}
	if cost > s.budget+model.FeasTol {
		return math.Inf(1)
	}

	bound := 0.0
	for si := range s.used {
		// Branch-aware latency floor: each demand's best allowed node.
		fx := s.fixed[si]
		allowedLat := 0.0
		for _, d := range s.demands[si] {
			best := math.Inf(1)
			for k := 0; k < s.V; k++ {
				if fx[k] != 0 && d.coef[k] < best {
					best = d.coef[k]
				}
			}
			if math.IsInf(best, 1) {
				return math.Inf(1)
			}
			allowedLat += best
		}
		// Trade over the instance count: at least the committed count, at
		// least 1, at most the budget cap (or the allowed-node count).
		nMin := s.instCnt[si]
		if nMin < 1 {
			nMin = 1
		}
		nMax := s.capSvc[si]
		if nMax > s.allowCnt[si] {
			nMax = s.allowCnt[si]
		}
		if nMax < nMin {
			nMax = nMin
		}
		best := math.Inf(1)
		for n := nMin; n <= nMax; n++ {
			lat := s.svcLatencyBound(si, n)
			if allowedLat > lat {
				lat = allowedLat
			}
			v := s.lambda*s.kappa[si]*float64(n) + (1-s.lambda)*lat
			if v < best {
				best = v
			}
			//socllint:ignore floateq lat was literally assigned allowedLat above; assignment-equality is exact
			if lat == allowedLat {
				break
			}
		}
		bound += best
	}
	return bound
}

// fig2Instance builds a Fig. 2 point exactly as the fig2 experiment does:
// a random-geometric substrate, the EShop catalog and a budget of 8000.
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

// withBoundOracle runs f with boundProbe comparing every visited node's
// incremental bound against lowerBoundScratch, and returns how many nodes
// were checked and how many disagreed.
func withBoundOracle(t *testing.T, f func()) (checked, bad int64) {
	t.Helper()
	var nChecked, nBad atomic.Int64
	boundProbe = func(s *solver, lb float64) {
		nChecked.Add(1)
		if math.Float64bits(lb) != math.Float64bits(lowerBoundScratch(s)) {
			nBad.Add(1)
		}
	}
	defer func() { boundProbe = nil }()
	f()
	return nChecked.Load(), nBad.Load()
}

// The incremental bound equals the from-scratch oracle bitwise at every
// visited node of full searches, serial and parallel.
func TestIncrementalBoundMatchesScratch(t *testing.T) {
	points := [][2]int{{6, 10}, {6, 12}, {8, 12}}
	for _, pt := range points {
		for seed := int64(1); seed <= 3; seed++ {
			in := fig2Instance(pt[0], pt[1], seed)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%dx%d seed %d workers %d", pt[0], pt[1], seed, workers)
				var res Result
				checked, bad := withBoundOracle(t, func() {
					var err error
					if res, err = Solve(in, Options{Workers: workers}); err != nil {
						t.Fatal(err)
					}
				})
				if res.Status != Optimal {
					t.Fatalf("%s: status %v", name, res.Status)
				}
				if checked != res.Nodes {
					t.Fatalf("%s: probe saw %d nodes, search expanded %d", name, checked, res.Nodes)
				}
				if bad != 0 {
					t.Fatalf("%s: %d of %d node bounds differ from the scratch oracle", name, bad, checked)
				}
			}
		}
	}
}

// The Fig. 2 10x20 point's serial tree and optimum are pinned: the bound
// cache must not move a single node.
func TestFig2TreePinned(t *testing.T) {
	res, err := Solve(fig2Instance(10, 20, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Nodes != 652390 {
		t.Fatalf("10x20 seed 1: status %v nodes %d, want optimal at 652390", res.Status, res.Nodes)
	}
	if got := fmt.Sprintf("%.6f", res.StarObjective); got != "2352.890557" {
		t.Fatalf("10x20 seed 1: star objective %s, want 2352.890557", got)
	}
}
