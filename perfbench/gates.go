package main

// Correctness gates. Each returns an error naming the first violation; the
// benchmark fails the run on any.

import (
	"fmt"
	"math"

	"repro/internal/combine"
	"repro/internal/model"
)

// gateOrdered: a reliable ordered session admits every event it sends and
// answers no frame with an error.
func gateOrdered(sent int, r *sessionResult) error {
	if len(r.Errors) > 0 {
		return fmt.Errorf("ordered session: %d error frames, first %q", len(r.Errors), r.Errors[0])
	}
	if r.Accepted != sent || r.Shed != 0 || r.Unacked != 0 {
		return fmt.Errorf("ordered session: sent %d events, accepted %d, shed %d, unacknowledged %d",
			sent, r.Accepted, r.Shed, r.Unacked)
	}
	return nil
}

// gateAdmission: in an open-loop session every event ends admitted or shed,
// on the client's count and in the server's summary alike, and no frame is
// answered with an error.
func gateAdmission(sent int, r *sessionResult) error {
	if len(r.Errors) > 0 {
		return fmt.Errorf("open-loop session: %d error frames, first %q", len(r.Errors), r.Errors[0])
	}
	if r.Accepted+r.Shed != sent || r.Unacked != 0 {
		return fmt.Errorf("open-loop session: sent %d events, accepted %d + shed %d, unacknowledged %d",
			sent, r.Accepted, r.Shed, r.Unacked)
	}
	kv, err := parseSummary(r.Summary)
	if err != nil {
		return err
	}
	shed := kv["shed_deadline"] + kv["shed_queue"] + kv["shed_overload"] + kv["shed_finished"]
	if kv["admitted"]+shed != sent || kv["admitted"] != r.Accepted {
		return fmt.Errorf("open-loop session: server admitted %d + shed %d, sent %d, client saw %d accepted",
			kv["admitted"], shed, sent, r.Accepted)
	}
	return nil
}

// gateSame: the server's output equals the in-process reference line for
// line (per-epoch records, or the one-line session summary).
func gateSame(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d lines, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: line %d is %q, reference %q", what, i, got[i], want[i])
		}
	}
	return nil
}

// gateSharded: the merged placement meets the budget (Eq. 5) and every
// node's storage (Eq. 6), serves every request, and reproduces the first
// iteration's objective bit for bit.
func gateSharded(in *model.Instance, r *combine.ShardedResult, firstObjective float64) error {
	if r.Unserved != 0 {
		return fmt.Errorf("sharded: %d requests unserved", r.Unserved)
	}
	cost := 0.0
	for i := 0; i < in.M(); i++ {
		svc := in.Workload.Catalog.Service(i)
		for k := 0; k < in.V(); k++ {
			if r.Placement.X[i][k] {
				cost += svc.DeployCost
			}
		}
	}
	if !r.BudgetMet || cost > in.Budget+model.FeasTol {
		return fmt.Errorf("sharded: cost %.6g over budget %.6g (BudgetMet=%v)", cost, in.Budget, r.BudgetMet)
	}
	for k := 0; k < in.V(); k++ {
		used := 0.0
		for i := 0; i < in.M(); i++ {
			if r.Placement.X[i][k] {
				used += in.Workload.Catalog.Service(i).Storage
			}
		}
		if capacity := in.Graph.Node(k).Storage; used > capacity+model.FeasTol {
			return fmt.Errorf("sharded: node %d stores %.6g over capacity %.6g", k, used, capacity)
		}
	}
	if math.Float64bits(r.Objective) != math.Float64bits(firstObjective) {
		return fmt.Errorf("sharded: objective %.17g differs from the first iteration's %.17g", r.Objective, firstObjective)
	}
	return nil
}

// exactPair is one instance solved by both exact solvers.
type exactPair struct {
	Name           string
	OptOptimal     bool
	ILPOptimal     bool
	OptObj, ILPObj float64
}

// gateExact: every solve is proven optimal and the ILP optimum equals the
// specialised optimizer's to model.ObjTol, relative to the objective's
// magnitude (both sum the same star coefficients in different orders).
func gateExact(p exactPair) error {
	if !p.OptOptimal || !p.ILPOptimal {
		return fmt.Errorf("exact %s: not proven optimal (opt %v, ilp %v)", p.Name, p.OptOptimal, p.ILPOptimal)
	}
	if math.Abs(p.OptObj-p.ILPObj) > model.ObjTol*math.Max(1, math.Abs(p.OptObj)) {
		return fmt.Errorf("exact %s: ilp optimum %.17g != opt optimum %.17g", p.Name, p.ILPObj, p.OptObj)
	}
	return nil
}
