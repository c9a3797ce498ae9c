package main

import "sort"

// The per-layer metrics of the traced run. Every traced run reports all of
// them; a layer the workload does not reach reads 0.

type layerMetric struct {
	Name, Unit, Better string
}

var layerMetrics = []layerMetric{
	{"transport.encode_ns", "ns", "lower"},
	{"transport.decode_ns", "ns", "lower"},
	{"transport.event_us", "us", "lower"},
	{"serve.parse_event_ns", "ns", "lower"},
	{"transport.frames", "count", "lower"},
	{"transport.duplicates", "count", "lower"},
	{"serve.tick_self_ms", "ms", "lower"},
	{"serve.steady_tick_ms", "ms", "lower"},
	{"serve.incremental_epochs", "count", "higher"},
	{"serve.cold_steps", "count", "lower"},
	{"serve.scaled_to_zero", "count", "higher"},
	{"serve.policy_ms", "ms", "lower"},
	{"repair.run_ms", "ms", "lower"},
	{"repair.adds", "count", "lower"},
	{"repair.evicts", "count", "lower"},
	{"repair.rolled_back", "count", "lower"},
	{"repair.accept_ratio", "ratio", "higher"},
	{"core.plan_ms", "ms", "lower"},
	{"core.plans", "count", "lower"},
	{"serve.resolve_adopt_ratio", "ratio", "higher"},
	{"transport.shed_deadline", "count", "lower"},
	{"transport.shed_queue", "count", "lower"},
	{"transport.shed_overload", "count", "lower"},
	{"transport.late_admits", "count", "lower"},
	{"transport.wait_p99_epochs", "epochs", "lower"},
	{"transport.breaker_trips", "count", "lower"},
	{"transport.degraded_epochs", "count", "lower"},
	{"transport.offload_epochs", "count", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"combine.shard_solve_p50_ms", "ms", "lower"},
	{"combine.shard_solve_max_ms", "ms", "lower"},
	{"combine.reconcile_ms", "ms", "lower"},
	{"combine.account_ms", "ms", "lower"},
	{"combine.reconcile_probes", "count", "lower"},
	{"combine.reconcile_yield", "ratio", "higher"},
	{"partition.build_ms", "ms", "lower"},
	{"preprov.run_ms", "ms", "lower"},
	{"combine.run_ms", "ms", "lower"},
	{"combine.route_cache_hit_ratio", "ratio", "higher"},
	{"combine.rollback_ratio", "ratio", "lower"},
	{"opt.solve_ms", "ms", "lower"},
	{"opt.bb_nodes", "count", "lower"},
	{"opt.nodes_per_ms", "1/ms", "higher"},
	{"ilp.solve_ms", "ms", "lower"},
	{"ilp.bb_nodes", "count", "lower"},
	{"lp.root_ms", "ms", "lower"},
	{"lp.warm_resolve_us", "us", "lower"},
	{"lp.refactorizations", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.intended_share", "ratio", "higher"},
	{"trace.intended_dominates", "count", "higher"},
}

// layerReport collects a traced run's per-layer values; finish renders all
// of layerMetrics, 0 where the workload set nothing.
type layerReport map[string]float64

func (l layerReport) finish(r *run) {
	for _, m := range layerMetrics {
		r.metric(m.Name, l[m.Name], m.Unit)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
