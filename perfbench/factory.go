package main

// The benchmark's copy of soclserved's session wiring. The socket runs hand
// soclserved the flags in serveSetup.args; the in-process references and the
// traced run build the same daemon through daemonConfig, which mirrors
// cmd/soclserved's daemonConfig and transportConfig for the policy "auto".

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// serveSetup is a serving workload's daemon and frontend configuration.
type serveSetup struct {
	Lifecycle  serve.LifecycleConfig
	Unordered  bool
	Deadline   int
	Queue      int
	Capacity   int
	Breaker    bool
	CostBudget int
}

// args renders the setup as soclserved flags.
func (s serveSetup) args() []string {
	var a []string
	add := func(flag string, v int) {
		if v != 0 {
			a = append(a, flag, strconv.Itoa(v))
		}
	}
	add("-idle-epochs", s.Lifecycle.IdleEpochs)
	add("-warm-pool", s.Lifecycle.WarmPool)
	if s.Lifecycle.ColdStartDelay > 0 {
		a = append(a, "-cold-start", strconv.FormatFloat(s.Lifecycle.ColdStartDelay, 'g', -1, 64))
	}
	if s.Unordered {
		a = append(a, "-unordered")
	}
	add("-deadline", s.Deadline)
	add("-queue", s.Queue)
	add("-capacity", s.Capacity)
	if s.Breaker {
		a = append(a, "-breaker")
	}
	add("-cost-budget", s.CostBudget)
	return a
}

// hooks wrap the daemon's seams for timing; the zero value wraps nothing.
type hooks struct {
	planner func(func(*model.Instance) (model.Placement, error)) func(*model.Instance) (model.Placement, error)
	repair  func(repairFunc) repairFunc
	policy  func(serve.Policy) serve.Policy
}

type repairFunc = func(*model.Instance, *chaos.Mask, model.Placement, repair.Config) (*repair.Result, error)

// daemonConfig rebuilds the substrate from the meta line and wires the
// warm-started SoCL online solver as planner and repair seam, exactly as
// soclserved does with -policy auto.
func (s serveSetup) daemonConfig(meta serve.Meta, h hooks) (serve.Config, error) {
	if meta.Nodes <= 0 || meta.Radius <= 0 {
		return serve.Config{}, fmt.Errorf("meta line lacks topology provenance")
	}
	g := topology.RandomGeometric(meta.Nodes, meta.Radius, topology.DefaultGenConfig(), meta.TopoSeed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), meta.CatSeed)
	algo := sim.NewSoCLOnline(core.DefaultConfig())
	planner := algo.Place
	if h.planner != nil {
		planner = h.planner(planner)
	}
	run := repairFunc(algo.RepairWith)
	if h.repair != nil {
		run = h.repair(run)
	}
	var pol serve.Policy = serve.AutoPolicy{Threshold: serve.DefaultResolveThreshold, Repair: serve.RepairPolicy{Run: run}}
	if h.policy != nil {
		pol = h.policy(pol)
	}
	sc := serve.Config{
		Graph:       g,
		Catalog:     cat,
		Lambda:      meta.Lambda,
		Budget:      meta.Budget,
		Mode:        model.RouteModeOptimal,
		RouteSeed:   meta.RouteSeed,
		Planner:     planner,
		PlannerName: algo.Name(),
		Repair:      repair.DefaultConfig(),
		Policy:      pol,
		Lifecycle:   s.Lifecycle,
	}
	//socllint:ignore floateq deliberate exact zero: both unset means no cloud fallback
	if meta.CloudTransfer != 0 || meta.CloudCompute != 0 {
		sc.Cloud = &model.CloudConfig{TransferCost: meta.CloudTransfer, Compute: meta.CloudCompute}
	}
	return sc, nil
}

// transportConfig mirrors soclserved's frontend hardening flags.
func (s serveSetup) transportConfig(h hooks) transport.Config {
	tc := transport.Config{
		Factory:       func(meta serve.Meta) (serve.Config, error) { return s.daemonConfig(meta, h) },
		Ordered:       !s.Unordered,
		DeadlineSlots: s.Deadline,
		MaxQueue:      s.Queue,
		Capacity:      s.Capacity,
	}
	if s.Breaker {
		tc.Breaker = transport.BreakerConfig{Enabled: true, CostBudget: s.CostBudget}
		cc := model.DefaultCloudConfig()
		tc.Ladder = transport.LadderConfig{
			CloudTransfer:  cc.TransferCost,
			CloudCompute:   cc.Compute,
			CloudColdStart: 0.25,
		}
	}
	return tc
}

// epochHeader and epochRow render per-epoch records exactly like
// soclserved -csv, so the server's file and an in-process reference compare
// line for line.
var epochHeader = []string{"epoch", "reqs", "avg_delay", "cost", "served_obj",
	"missing", "unroutable", "degraded", "adds", "evicts", "resolved", "incr",
	"cold", "scale0", "warm"}

func epochRow(r *serve.EpochRecord) []string {
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	return []string{
		strconv.Itoa(r.Epoch), strconv.Itoa(r.Requests),
		fmt.Sprintf("%.3f", r.AvgDelay), fmt.Sprintf("%.1f", r.Cost),
		fmt.Sprintf("%.1f", r.ServedObjective),
		strconv.Itoa(r.Missing), strconv.Itoa(r.Unroutable), strconv.Itoa(r.Degraded),
		strconv.Itoa(r.Adds), strconv.Itoa(r.Evicts), b(r.Resolved), b(r.Incremental),
		strconv.Itoa(r.ColdSteps), strconv.Itoa(r.ScaledToZero), strconv.Itoa(r.WarmSpares),
	}
}

// csvLines renders a run's records as the lines of soclserved's -csv file.
func csvLines(rr *serve.RunResult) []string {
	lines := []string{strings.Join(epochHeader, ",")}
	for i := range rr.Records {
		lines = append(lines, strings.Join(epochRow(&rr.Records[i]), ","))
	}
	return lines
}
