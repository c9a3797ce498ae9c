package main

// The solve workloads: the sharded combine at 10⁵ users and the exact stack
// on Fig. 2 points, both run in process.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/combine"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/preprov"
	"repro/internal/topology"
)

// The ext_scale point: 10⁵ users over 36 regions × 28 nodes.
const (
	shardedUsers     = 100000
	shardedRegions   = 36
	shardedPerRegion = 28
	// shardedWorkers is pinned so the figure does not depend on the host's
	// core count; Workers:1 ≡ N is a pinned contract, so results match.
	shardedWorkers = 1
	// exactWorkers pins the exact solvers to one worker: on two cores the
	// 8×40 point measured 4.3 s at two workers against 2.8 s at one.
	exactWorkers = 1
	// setupRepeats is how many times a solve workload builds its inputs to
	// report the median set-up time.
	setupRepeats = 11
)

func shardedPlain(o options, r *run) error {
	var setups []float64
	var in *model.Instance
	var plan *topology.ShardPlan
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		var err error
		in, plan, err = clusteredInstance(shardedUsers, shardedRegions, shardedPerRegion, o.Seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	cfg := combine.DefaultShardedConfig()
	cfg.Workers = shardedWorkers
	cfg.Seed = o.Seed

	var shardMS, solveS []float64
	first := math.NaN()
	start := time.Now()
	iters := 0
	for ; time.Since(start).Seconds() < o.Seconds || len(shardMS) < minSamples(0.9); iters++ {
		t := time.Now()
		res, err := combine.RunSharded(in, plan, cfg)
		el := time.Since(t)
		r.res.Attempted++
		if err != nil {
			return err
		}
		if iters == 0 {
			first = res.Objective
		}
		if err := gateSharded(in, res, first); err != nil {
			return err
		}
		solveS = append(solveS, el.Seconds())
		for _, sh := range res.Shards {
			shardMS = append(shardMS, ms(sh.SolveTime))
		}
	}
	r.gate(fmt.Sprintf("sharded: budget and storage hold (Eq. 5-6), zero unserved, objective identical on all %d iterations", iters))

	p50, err := percentile(shardMS, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(shardMS, 0.9)
	if err != nil {
		return err
	}
	total := 0.0
	for _, s := range solveS {
		total += s
	}
	rate := float64(shardedUsers*iters) / total
	rss := selfRSSMB()
	r.metric("setup_s", median(setups), "s")
	r.metric("p50_ms", p50, "ms")
	r.metric("tail_ms", p90, "ms")
	r.metric("rate_per_s", rate, "1/s")
	r.metric("peak_rss_mb", rss, "MB")

	r.detail("setup_s", median(setups), "s", len(setups))
	r.detail("solve_s", median(solveS), "s", len(solveS))
	r.detail("users_per_s", rate, "1/s", iters)
	r.detail("shard_solve_p50_ms", p50, "ms", len(shardMS))
	r.detail("shard_solve_p90_ms", p90, "ms", len(shardMS))
	r.detail("objective", first, "model", 0)
	r.detail("peak_rss_mb", rss, "MB", 0)
	r.rep.Provenance["workers"] = shardedWorkers
	r.rep.Provenance["shards"] = plan.NumShards
	r.rep.Provenance["iterations"] = iters
	r.rep.Provenance["percentiles"] = fmt.Sprintf("p50/p90 over %d per-shard solves", len(shardMS))
	return nil
}

func shardedTrace(o options, r *run) error {
	in, plan, err := clusteredInstance(shardedUsers, shardedRegions, shardedPerRegion, o.Seed)
	if err != nil {
		return err
	}
	cfg := combine.DefaultShardedConfig()
	cfg.Workers = shardedWorkers
	cfg.Seed = o.Seed

	// Untraced and traced solves alternate for the overhead; the last
	// traced one supplies the telemetry.
	var tr *tracer
	var res *combine.ShardedResult
	var untraced, traced []float64
	first := math.NaN()
	for k := 0; k < overheadPasses; k++ {
		t := time.Now()
		base, err := combine.RunSharded(in, plan, cfg)
		untraced = append(untraced, ms(time.Since(t)))
		if err != nil {
			return err
		}
		if k == 0 {
			first = base.Objective
		}
		tr = newTracer()
		id := tr.begin("combine.run_sharded")
		res, err = combine.RunSharded(in, plan, cfg)
		tr.end(id)
		traced = append(traced, float64(tr.spans[id].dur())/1e6)
		r.res.Attempted += 2
		if err != nil {
			return err
		}
		for _, x := range []*combine.ShardedResult{base, res} {
			if err := gateSharded(in, x, first); err != nil {
				return err
			}
		}
	}
	r.gate("untraced and traced RunSharded pass the sharded gates with one objective")
	tot := layerReport{}

	var solves []float64
	largest := 0
	for s, sh := range res.Shards {
		solves = append(solves, ms(sh.SolveTime))
		if sh.Requests > res.Shards[largest].Requests {
			largest = s
		}
	}
	sort.Float64s(solves)
	tot["combine.shard_solve_p50_ms"] = median(solves)
	tot["combine.shard_solve_max_ms"] = solves[len(solves)-1]
	tot["combine.reconcile_ms"] = ms(res.ReconcileTime)
	tot["combine.account_ms"] = ms(res.AccountTime)
	tot["combine.reconcile_probes"] = float64(res.ReconcileProbes)
	tot["combine.reconcile_yield"] = ratio(float64(res.ReconcileRemoved), float64(res.ReconcileProbes))

	// The largest shard's pipeline, stage by stage.
	si, err := largestShard(in, plan, largest)
	if err != nil {
		return err
	}
	tr.epoch = largest
	id := tr.begin("partition.build")
	part := partition.Build(si.Sub, cfg.Partition)
	tr.end(id)
	id = tr.begin("preprov.run")
	pre := preprov.Run(si.Sub, part)
	tr.end(id)
	id = tr.begin("combine.run")
	cres := combine.Run(si.Sub, part, pre.Placement, cfg.Combine)
	tr.end(id)
	totals, _, _ := tr.layerTotals()
	tot["partition.build_ms"] = float64(totals["partition.build"]) / 1e6
	tot["preprov.run_ms"] = float64(totals["preprov.run"]) / 1e6
	tot["combine.run_ms"] = float64(totals["combine.run"]) / 1e6
	tot["combine.route_cache_hit_ratio"] = ratio(float64(cres.RouteCacheHits), float64(cres.RouteCacheHits+cres.RouteRecomputed))
	tot["combine.rollback_ratio"] = ratio(float64(cres.RolledBack), float64(cres.RolledBack+cres.Combined))
	tot["trace.overhead_pct"] = overheadPct(traced, untraced)

	shardSum := 0.0
	for _, v := range solves {
		shardSum += v
	}
	layers := map[string]float64{
		"combine shard solves":   shardSum,
		"combine.reconcile":      ms(res.ReconcileTime),
		"combine accounting":     ms(res.AccountTime),
		"slicing, merge (other)": ms(res.SolveTime) - shardSum,
	}
	share, dominates := dominance(layers, []string{"combine shard solves"})
	tot["trace.intended_share"] = share
	if dominates {
		tot["trace.intended_dominates"] = 1
	}
	for _, name := range sortedKeys(layers) {
		r.note("layer %-24s %9.2f ms", name, layers[name])
	}
	r.note("largest shard %d: %d requests; intended layer combine shard solves %.1f%% of RunSharded, dominates=%v",
		largest, res.Shards[largest].Requests, 100*share, dominates)
	r.note("tracing overhead: traced RunSharded median %.1f ms vs untraced %.1f ms over %d passes each", median(traced), median(untraced), overheadPasses)
	tot.finish(r)
	return tr.write(fmt.Sprintf("%s/%s-seed%d.spans.jsonl.gz", o.Out, o.Workload, o.Seed))
}

// largestShard rebuilds shard s's sub-instance the way RunSharded does: its
// owned nodes, the requests homed on them, and its demand share of the
// budget floored at the continuity cost of the services they use.
func largestShard(in *model.Instance, plan *topology.ShardPlan, s int) (*model.ShardInstance, error) {
	var reqs []int
	used := make([]bool, in.M())
	floor := 0.0
	for h := range in.Workload.Requests {
		if plan.NodeShard[in.Workload.Requests[h].Home] != s {
			continue
		}
		reqs = append(reqs, h)
		for _, svc := range in.Workload.Requests[h].Chain {
			if !used[svc] {
				used[svc] = true
				floor += in.Workload.Catalog.Service(svc).DeployCost
			}
		}
	}
	own := plan.Shards[s]
	si, err := model.NewShardInstance(in, own, len(own), reqs, len(reqs))
	if err != nil {
		return nil, err
	}
	si.Sub.Budget = math.Max(in.Budget*float64(len(reqs))/float64(len(in.Workload.Requests)), floor)
	return si, nil
}

// exactPoint is one Fig. 2 instance of the exact workload.
type exactPoint struct {
	Nodes, Users int
	Seed         int64
	ILP          bool // also solved by ilp.SolveBounded and cross-checked
}

// exactSet is the fixed solve set: the two Fig. 2 frontier points solved
// by opt, and the small points both solvers prove and must agree on. The
// instances are fixed rather than drawn from the workload seed because
// branch-and-bound cost swings by two orders of magnitude between seeds of
// one size (8×40 took 0.4 s to 82 s across three seeds), which no run
// length absorbs. The workload seed draws one further 6×10 instance that
// both solvers must agree on, untimed.
var exactSet = []exactPoint{
	{8, 40, 1, false},
	{10, 20, 1, false},
	{6, 10, 1, true}, {6, 10, 2, true}, {6, 10, 3, true},
	{6, 12, 1, true}, {6, 12, 2, true}, {6, 12, 3, true},
	{8, 12, 1, true}, {8, 12, 2, true}, {8, 12, 3, true},
}

type exactInputs struct {
	points []exactPoint
	ins    []*model.Instance
	mips   []*ilp.BoundedMIP // nil where the point is opt-only
}

func buildExact(points []exactPoint) (*exactInputs, error) {
	x := &exactInputs{points: points}
	for _, p := range points {
		in, err := fig2Instance(p.Nodes, p.Users, p.Seed)
		if err != nil {
			return nil, err
		}
		var m *ilp.BoundedMIP
		if p.ILP {
			m, _ = ilp.BuildSoCLBounded(in)
		}
		x.ins = append(x.ins, in)
		x.mips = append(x.mips, m)
	}
	return x, nil
}

// exactSolve is one point's solves and their wall times.
type exactSolve struct {
	optRes   opt.Result
	ilpRes   ilp.Result
	optWall  time.Duration
	ilpWall  time.Duration
	hasILP   bool
	pointTag string
}

// solveOne runs the point's solves (opt, then ilp where asked) and gates
// them.
func solveOne(x *exactInputs, i int) (exactSolve, error) {
	p := x.points[i]
	s := exactSolve{pointTag: fmt.Sprintf("%dx%d seed %d", p.Nodes, p.Users, p.Seed)}
	t := time.Now()
	res, err := opt.Solve(x.ins[i], opt.Options{Workers: exactWorkers})
	s.optWall = time.Since(t)
	if err != nil {
		return s, fmt.Errorf("opt %s: %w", s.pointTag, err)
	}
	s.optRes = res
	if x.mips[i] == nil {
		if res.Status != opt.Optimal {
			return s, fmt.Errorf("opt %s: status %v, want optimal", s.pointTag, res.Status)
		}
		return s, nil
	}
	t = time.Now()
	ires, err := ilp.SolveBounded(x.mips[i], ilp.Options{Workers: exactWorkers})
	s.ilpWall = time.Since(t)
	if err != nil {
		return s, fmt.Errorf("ilp %s: %w", s.pointTag, err)
	}
	s.ilpRes, s.hasILP = ires, true
	return s, gateExact(exactPair{
		Name: s.pointTag, OptOptimal: res.Status == opt.Optimal, ILPOptimal: ires.Status == ilp.Optimal,
		OptObj: res.StarObjective, ILPObj: ires.Objective,
	})
}

func exactPlain(o options, r *run) error {
	var setups []float64
	var x *exactInputs
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		var err error
		if x, err = buildExact(exactSet); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	// The seeded agreement check: untimed.
	seeded, err := buildExact([]exactPoint{{6, 10, subSeed(o.Seed, "solve_exact"), true}})
	if err != nil {
		return err
	}
	if _, err := solveOne(seeded, 0); err != nil {
		return err
	}
	r.res.Attempted += 2

	var solveMS []float64
	var wall time.Duration
	passes := 0
	start := time.Now()
	need := minSamples(0.75)
	for ; time.Since(start).Seconds() < o.Seconds || len(solveMS) < need; passes++ {
		for i := range x.points {
			s, err := solveOne(x, i)
			r.res.Attempted++
			if err != nil {
				return err
			}
			solveMS = append(solveMS, ms(s.optWall))
			wall += s.optWall
			if s.hasILP {
				r.res.Attempted++
				solveMS = append(solveMS, ms(s.ilpWall))
				wall += s.ilpWall
			}
		}
	}
	r.gate(fmt.Sprintf("exact: every solve proven optimal and ilp = opt within model.ObjTol on %d points × %d passes plus the seeded 6x10 point", len(x.points), passes))

	p50, err := percentile(solveMS, 0.5)
	if err != nil {
		return err
	}
	p75, err := percentile(solveMS, 0.75)
	if err != nil {
		return err
	}
	rate := float64(len(solveMS)) / wall.Seconds()
	rss := selfRSSMB()
	r.metric("setup_s", median(setups), "s")
	r.metric("p50_ms", p50, "ms")
	r.metric("tail_ms", p75, "ms")
	r.metric("rate_per_s", rate, "1/s")
	r.metric("peak_rss_mb", rss, "MB")

	r.detail("setup_s", median(setups), "s", len(setups))
	r.detail("solve_s", wall.Seconds()/float64(passes), "s", passes)
	r.detail("solve_p50_ms", p50, "ms", len(solveMS))
	r.detail("solve_p75_ms", p75, "ms", len(solveMS))
	r.detail("solves_per_s", rate, "1/s", len(solveMS))
	r.detail("peak_rss_mb", rss, "MB", 0)
	r.rep.Provenance["workers"] = exactWorkers
	r.rep.Provenance["passes"] = passes
	r.rep.Provenance["percentiles"] = fmt.Sprintf("p50/p75 over %d solves (%d passes over the fixed set); p90 would need %d", len(solveMS), passes, minSamples(0.9))
	return nil
}

func exactTrace(o options, r *run) error {
	x, err := buildExact(exactSet)
	if err != nil {
		return err
	}
	// Untraced pass for the overhead baseline.
	t := time.Now()
	for i := range x.points {
		if _, err := solveOne(x, i); err != nil {
			return err
		}
	}
	untraced := time.Since(t)

	tr := newTracer()
	tot := layerReport{}
	var optNodes, ilpNodes int64
	for i := range x.points {
		tr.epoch = i
		id := tr.begin("exact.point")
		s, err := solveOne(x, i)
		tr.end(id)
		r.res.Attempted++
		if err != nil {
			return err
		}
		tot["opt.solve_ms"] += ms(s.optWall)
		optNodes += s.optRes.Nodes
		if s.hasILP {
			tot["ilp.solve_ms"] += ms(s.ilpWall)
			ilpNodes += int64(s.ilpRes.Nodes)
		}
	}
	r.gate("traced solves proven optimal, ilp = opt within model.ObjTol")
	tot["opt.bb_nodes"] = float64(optNodes)
	tot["opt.nodes_per_ms"] = ratio(float64(optNodes), tot["opt.solve_ms"])
	tot["ilp.bb_nodes"] = float64(ilpNodes)

	// The LP layer on the largest ILP model: a cold root relaxation, then a
	// warm re-solve after one bound change.
	big := -1
	for i, m := range x.mips {
		if m != nil && (big < 0 || m.Prob.NumVars > x.mips[big].Prob.NumVars) {
			big = i
		}
	}
	prob := x.mips[big].Prob
	tr.epoch = big
	id := tr.begin("lp.root")
	root, err := lp.SolveBounded(prob)
	tr.end(id)
	if err != nil || root.Status != lp.Optimal {
		return fmt.Errorf("lp root relaxation: status %v, err %v", root.Status, err)
	}
	ws, err := lp.NewWarmSolver(prob)
	if err != nil {
		return err
	}
	lower := append([]float64(nil), prob.Lower...)
	upper := append([]float64(nil), prob.Upper...)
	if _, err := ws.SolveWithBounds(lower, upper); err != nil {
		return err
	}
	// Branch down on the most fractional variable of the root solution.
	j, frac := 0, -1.0
	for k, v := range root.X {
		if f := math.Min(v-math.Floor(v), math.Ceil(v)-v); f > frac {
			j, frac = k, f
		}
	}
	upper[j] = math.Floor(root.X[j])
	id = tr.begin("lp.warm_resolve")
	_, err = ws.SolveWithBounds(lower, upper)
	tr.end(id)
	if err != nil {
		return err
	}
	totals, _, _ := tr.layerTotals()
	tot["lp.root_ms"] = float64(totals["lp.root"]) / 1e6
	tot["lp.warm_resolve_us"] = float64(totals["lp.warm_resolve"]) / 1e3
	tot["lp.refactorizations"] = float64(ws.Refactorizations())
	tot["trace.overhead_pct"] = 100 * (float64(totals["exact.point"]) - float64(untraced.Nanoseconds())) / float64(untraced.Nanoseconds())

	layers := map[string]float64{
		"opt":         tot["opt.solve_ms"],
		"ilp":         tot["ilp.solve_ms"],
		"lp (probes)": float64(totals["lp.root"]+totals["lp.warm_resolve"]) / 1e6,
	}
	sum := layers["opt"] + layers["ilp"] + layers["lp (probes)"]
	tot["trace.intended_share"] = ratio(layers["opt"]+layers["ilp"], sum)
	tot["trace.intended_dominates"] = 1 // opt and ilp are the workload's only solvers
	for _, name := range sortedKeys(layers) {
		r.note("layer %-12s %9.2f ms", name, layers[name])
	}
	r.note("tracing overhead: traced set %.1f ms vs untraced %.1f ms", float64(totals["exact.point"])/1e6, ms(untraced))
	tot.finish(r)
	return tr.write(fmt.Sprintf("%s/%s-seed%d.spans.jsonl.gz", o.Out, o.Workload, o.Seed))
}
