package main

// Input generation. Every input is a pure function of the workload seed:
// the serving scripts come from sim.EventStream over a seeded scenario, the
// solve instances from topology.* and msvc.GenerateWorkload. Nothing here is
// timed.

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// scenarioSpec is the recipe soclserved -record builds a script from.
type scenarioSpec struct {
	Nodes    int
	Users    int
	Slots    int
	FailRate float64
	Radius   float64
}

// recordScript generates the scenario's event stream exactly like
// soclserved -record: a random geometric substrate, the EShop catalog, the
// simulator's default trace configuration and, with a fail rate, a chaos
// schedule; the meta line carries the topology provenance the daemon
// rebuilds the substrate from.
func recordScript(sp scenarioSpec, seed int64) (*serve.Script, error) {
	g := topology.RandomGeometric(sp.Nodes, sp.Radius, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := sim.DefaultConfig(g, cat, sp.Users, seed)
	cfg.DurationMinutes = float64(sp.Slots) * cfg.SlotMinutes
	if sp.FailRate > 0 {
		scfg := chaos.DefaultScheduleConfig()
		scfg.NodeFailProb = sp.FailRate
		scfg.LinkFailProb = sp.FailRate
		scfg.StorageShrinkProb = sp.FailRate / 2
		scfg.MinNodesUp = sp.Nodes / 2
		cfg.Faults = chaos.Generate(g, sp.Slots, scfg, seed)
		cfg.Policy = sim.PolicyRepair
	}
	s, err := sim.EventStream(cfg)
	if err != nil {
		return nil, err
	}
	s.Meta.Radius = sp.Radius
	s.Meta.TopoSeed = seed
	s.Meta.CatSeed = seed
	return s, nil
}

// stretch spreads a script over factor× as many epochs: slot s moves to
// factor·s and NumSlots is multiplied, so every event is kept in its order
// and the epochs in between carry no events.
func stretch(s *serve.Script, factor int) *serve.Script {
	out := &serve.Script{Meta: s.Meta, Events: make([]serve.Event, len(s.Events))}
	out.Meta.NumSlots *= factor
	for i, ev := range s.Events {
		ev.Slot *= factor
		out.Events[i] = ev
	}
	return out
}

// clusteredInstance is the ext_scale point: a clustered substrate of
// regions × perRegion nodes, a uniform no-deadline workload, λ = 0.05, a
// budget of 1.5·regions·Σκ, and the shard plan that follows the regions.
func clusteredInstance(users, regions, perRegion int, seed int64) (*model.Instance, *topology.ShardPlan, error) {
	g, regionNodes := topology.Clustered(topology.DefaultClusterConfig(regions, perRegion), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	wcfg := msvc.DefaultWorkloadConfig(users)
	wcfg.DeadlineSlack = 0
	wcfg.Hotspot = 0
	w, err := msvc.GenerateWorkload(cat, g, wcfg, seed)
	if err != nil {
		return nil, nil, err
	}
	kappaTotal := 0.0
	for i := 0; i < cat.Len(); i++ {
		kappaTotal += cat.Service(i).DeployCost
	}
	in := &model.Instance{Graph: g, Workload: w, Lambda: 0.05, Budget: 1.5 * float64(regions) * kappaTotal}
	plan, err := topology.PlanShards(g, regionNodes)
	if err != nil {
		return nil, nil, err
	}
	return in, plan, nil
}

// fig2Instance is a Fig. 2 point: a random geometric substrate (radius
// 0.35), the EShop catalog, a no-deadline workload, λ = 0.5, budget 8000.
func fig2Instance(nodes, users int, seed int64) (*model.Instance, error) {
	g := topology.RandomGeometric(nodes, 0.35, topology.DefaultGenConfig(), seed)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), seed)
	cfg := msvc.DefaultWorkloadConfig(users)
	cfg.DeadlineSlack = 0
	w, err := msvc.GenerateWorkload(cat, g, cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("fig2 instance %dx%d: %w", nodes, users, err)
	}
	return &model.Instance{Graph: g, Workload: w, Lambda: 0.5, Budget: 8000}, nil
}

// subSeed derives a named input seed from the workload seed.
func subSeed(seed int64, name string) int64 { return stats.SplitSeed(seed, "perfbench/"+name) }
