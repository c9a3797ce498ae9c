package ilp

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
	"repro/internal/opt"
	"repro/internal/stats"
)

func TestBoundedKnapsackMatchesRowBased(t *testing.T) {
	p := lp.NewBoundedProblem(3)
	p.SetObjective(0, -10)
	p.SetObjective(1, -13)
	p.SetObjective(2, -7)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 1)
	}
	p.AddConstraint(map[int]float64{0: 3, 1: 4, 2: 2}, lp.LE, 6)
	res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true, true, true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-(-20)) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal -20", res.Status, res.Objective)
	}
}

func TestBoundedMIPInfeasible(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetBounds(0, 0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 2)
	res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestBoundedMIPIntegerInfeasible(t *testing.T) {
	p := lp.NewBoundedProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint(map[int]float64{0: 1}, lp.GE, 0.4)
	p.AddConstraint(map[int]float64{0: 1}, lp.LE, 0.6)
	res, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestBoundedValidate(t *testing.T) {
	if _, err := SolveBounded(&BoundedMIP{}, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := lp.NewBoundedProblem(2)
	if _, err := SolveBounded(&BoundedMIP{Prob: p, Integer: []bool{true}}, Options{}); err == nil {
		t.Fatal("integer length mismatch accepted")
	}
}

// Differential property: the bounded-variable encoding (binaries as [0,1]
// bounds) and the row encoding of the same binary program (x ≤ 1 as explicit
// rows over x ≥ 0) must solve to the same status and objective.
func TestBoundedMIPMatchesRowBasedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 4 + r.Intn(4)
		pb := lp.NewBoundedProblem(n)
		pr := lp.NewBoundedProblem(n)
		for j := 0; j < n; j++ {
			c := math.Round((r.Float64()*20-10)*4) / 4
			pb.SetObjective(j, c)
			pr.SetObjective(j, c)
			pb.SetBounds(j, 0, 1)
			pr.AddConstraint(map[int]float64{j: 1}, lp.LE, 1)
		}
		for i := 0; i < 2; i++ {
			coeffs := map[int]float64{}
			for j := 0; j < n; j++ {
				coeffs[j] = math.Round(r.Float64()*5*4) / 4
			}
			rhs := math.Round(r.Float64()*float64(n)*3*4) / 4
			pb.AddConstraint(coeffs, lp.LE, rhs)
			pr.AddConstraint(coeffs, lp.LE, rhs)
		}
		integer := make([]bool, n)
		for j := range integer {
			integer[j] = true
		}
		rb, err1 := SolveBounded(&BoundedMIP{Prob: pb, Integer: integer}, Options{})
		rr, err2 := SolveBounded(&BoundedMIP{Prob: pr, Integer: integer}, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if rb.Status != rr.Status {
			return false
		}
		if rb.Status != Optimal {
			return true
		}
		return math.Abs(rb.Objective-rr.Objective) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The bounded SoCL model must agree with the specialized exact solver, which
// optimizes the same star-linearized ILP without any LP, and its solution
// must cover every requested service.
func TestBuildSoCLBoundedMatches(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := soclInstance(3, 3, seed)
		mb, vmb := BuildSoCLBounded(in)
		rb, err := SolveBounded(mb, Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ro, err := opt.Solve(in, opt.Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if rb.Status != Optimal || ro.Status != opt.Optimal {
			t.Fatalf("seed %d: statuses %v/%v", seed, rb.Status, ro.Status)
		}
		if math.Abs(rb.Objective-ro.StarObjective) > 1e-4 {
			t.Fatalf("seed %d: bounded ILP %v != opt %v", seed, rb.Objective, ro.StarObjective)
		}
		p := vmb.Placement(rb.X)
		for _, s := range in.Workload.ServicesUsed() {
			if p.Count(s) == 0 {
				t.Fatalf("seed %d: service %d uncovered", seed, s)
			}
		}
	}
}
