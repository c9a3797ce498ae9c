package main

// The serving workloads: soclserved sessions over a unix socket, driven by
// the benchmark's client, checked against in-process references, and a
// traced in-process replay of the same frames for the per-layer split.

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/transport"
)

type serveWorkload struct {
	name    string
	spec    scenarioSpec
	stretch int // time-stretch factor applied to the recorded script
	setup   serveSetup
}

// scenarioSeed is the seed of scenario i of a workload's pool; the traced
// run uses scenario 0.
func (w serveWorkload) scenarioSeed(seed int64, i int) int64 {
	return subSeed(seed, fmt.Sprintf("%s/%d", w.name, i))
}

// serve_churn: closed loop, ordered, reliable, fault-free, serverless
// lifecycle on; stretched ×2 so every other epoch is quiet.
var churnWL = serveWorkload{
	name:    "serve_churn",
	spec:    scenarioSpec{Nodes: 12, Users: 2000, Slots: 24, Radius: 0.4},
	stretch: 2,
	setup:   serveSetup{Lifecycle: serve.LifecycleConfig{IdleEpochs: 2, WarmPool: 1, ColdStartDelay: 0.25}},
}

// serve_overload: open loop, unordered, faults at rate 0.2, hardened front
// door (deadline, bounded queue, capacity debt, breaker).
var overloadWL = serveWorkload{
	name:    "serve_overload",
	spec:    scenarioSpec{Nodes: 40, Users: 400, Slots: 48, Radius: 0.4, FailRate: 0.2},
	stretch: 1,
	setup:   serveSetup{Unordered: true, Deadline: 2, Queue: 2048, Capacity: 300, Breaker: true, CostBudget: 12},
}

// overloadLadder is the fixed ladder of epoch periods, slowest first, in a
// ratio of √2; the first rung is the nominal rung the tick percentiles are
// reported at.
var overloadLadder = []time.Duration{
	40 * time.Millisecond,
	28280 * time.Microsecond,
	20 * time.Millisecond,
}

// churnScenarios is how many scenarios, each from its own sub-seed of the
// workload seed, a serve_churn run cycles its sessions through, so that one
// topology's share of the work does not set the run's figures.
const churnScenarios = 4

// overloadScenarios is how many scenarios, each from its own sub-seed of the
// workload seed, one run floods the server with, one session each. A
// scenario's repair work depends on its fault schedule and traffic (one
// seed's session took twice another's in process), so a run pools many. The
// ladder's rungs cycle through the first few.
const overloadScenarios = 16

type serveInputs struct {
	script *serve.Script
	wire   *wireFrames
	busy   []bool // per epoch: carries events
}

func prepareServe(w serveWorkload, seed int64) (*serveInputs, error) {
	s, err := recordScript(w.spec, seed)
	if err != nil {
		return nil, err
	}
	if w.stretch > 1 {
		s = stretch(s, w.stretch)
	}
	frames, err := transport.BuildSession(s, 0)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{script: s, wire: encodeSession(frames)}
	for i := range frames {
		if frames[i].Type == transport.MsgTick {
			in.busy = append(in.busy, i > 0 && frames[i-1].Type == transport.MsgEvent)
		}
	}
	return in, nil
}

// quality reads the decision metrics off a reference run: unserved
// request-epochs over request-epochs, and the mean served completion time.
func quality(rr *serve.RunResult) (unservedFrac, meanDelay float64) {
	reqs, unserved := 0, 0
	for _, r := range rr.Records {
		reqs += r.Requests
		unserved += r.Missing + r.Unroutable
	}
	sum := 0.0
	for _, d := range rr.AllDelays {
		sum += d
	}
	return ratio(float64(unserved), float64(reqs)), ratio(sum, float64(len(rr.AllDelays)))
}

// churnScenario is one scenario of the serve_churn pool with its
// in-process reference.
type churnScenario struct {
	in     *serveInputs
	refCSV []string
	// Decision metrics of the reference run.
	unservedFrac, meanDelay float64
}

func churnPlain(o options, r *run) error {
	t0 := time.Now()
	var pool []churnScenario
	for i := 0; i < churnScenarios; i++ {
		in, err := prepareServe(churnWL, churnWL.scenarioSeed(o.Seed, i))
		if err != nil {
			return err
		}
		d, err := newDaemon(churnWL.setup, in.script.Meta)
		if err != nil {
			return err
		}
		ref, err := d.RunScript(in.script)
		if err != nil {
			return fmt.Errorf("reference RunScript: %w", err)
		}
		sc := churnScenario{in: in, refCSV: csvLines(ref)}
		sc.unservedFrac, sc.meanDelay = quality(ref)
		pool = append(pool, sc)
	}
	r.note("inputs and in-process references for %d scenarios took %.2fs (untimed)", len(pool), time.Since(t0).Seconds())

	var busy, quiet, sentToAck, setups, rss []float64
	events := 0
	var wall time.Duration
	start := time.Now()
	need := minSamples(0.9)
	sessions := 0
	sent := 0
	for ; time.Since(start).Seconds() < o.Seconds || len(busy) < need; sessions++ {
		sc := pool[sessions%len(pool)]
		sr, err := runSession(o.Server, o.Out, sessions, churnWL.setup, sc.in.wire, 0, false)
		if err != nil {
			return err
		}
		r.res.Attempted += len(sc.in.wire.frames)
		r.res.Failed += sr.Unacked + len(sr.Errors)
		sent += sc.in.wire.events
		if err := gateOrdered(sc.in.wire.events, sr); err != nil {
			return err
		}
		if err := gateSame("per-epoch records vs RunScript", sr.CSV, sc.refCSV); err != nil {
			return err
		}
		sentToAck = append(sentToAck, sr.TickSentMS...)
		for e, lat := range sr.TickMS {
			if sc.in.busy[e] {
				busy = append(busy, lat)
			} else {
				quiet = append(quiet, lat)
			}
		}
		setups = append(setups, sr.Setup.Seconds())
		events += sr.Accepted
		wall += sr.Wall
		rss = append(rss, sr.RSSMB)
	}
	r.gate(fmt.Sprintf("ordered: accepted = sent and no error frames in all %d sessions (%d events)", sessions, sent))
	r.gate("per-epoch records equal serve.Daemon.RunScript in process")

	p50, err := percentile(busy, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(busy, 0.9)
	if err != nil {
		return err
	}
	eps := float64(events) / wall.Seconds()
	r.metric("setup_s", median(setups), "s")
	r.metric("p50_ms", p50, "ms")
	r.metric("tail_ms", p90, "ms")
	r.metric("rate_per_s", eps, "1/s")
	r.metric("peak_rss_mb", median(rss), "MB")

	r.detail("setup_s", median(setups), "s", len(setups))
	r.detail("events_per_s", eps, "1/s", events)
	addTickDetail(r, "tick", sentToAck)
	addTickDetail(r, "epoch_busy", busy)
	addTickDetail(r, "epoch_quiet", quiet)
	var unserved, delays []float64
	for _, sc := range pool {
		unserved = append(unserved, sc.unservedFrac)
		delays = append(delays, sc.meanDelay)
	}
	r.detail("unserved_frac", median(unserved), "ratio", len(pool))
	r.detail("mean_delay", median(delays), "model", len(pool))
	r.detail("peak_rss_mb", median(rss), "MB", sessions)
	r.rep.Provenance["sessions"] = sessions
	r.rep.Provenance["scenarios"] = len(pool)
	r.rep.Provenance["events_per_session"] = pool[0].in.wire.events
	r.rep.Provenance["epochs_per_session"] = len(pool[0].in.busy)
	r.rep.Provenance["percentiles"] = fmt.Sprintf("p50/p90 over %d busy-epoch round trips", len(busy))
	return nil
}

// addTickDetail reports p50 and p90 of a tick-latency sample when it is
// large enough for them.
func addTickDetail(r *run, prefix string, xs []float64) {
	for _, q := range []float64{0.5, 0.9} {
		if v, err := percentile(xs, q); err == nil {
			r.detail(fmt.Sprintf("%s_p%d_ms", prefix, int(q*100)), v, "ms", len(xs))
		}
	}
}

func newDaemon(s serveSetup, meta serve.Meta) (*serve.Daemon, error) {
	sc, err := s.daemonConfig(meta, hooks{})
	if err != nil {
		return nil, err
	}
	return serve.NewDaemon(sc)
}

// parseSummary reads the integer fields of a session summary line.
func parseSummary(line string) (map[string]int, error) {
	kv := map[string]int{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(v); err == nil {
			kv[k] = n
		}
	}
	if _, ok := kv["admitted"]; !ok {
		return nil, fmt.Errorf("summary %q lacks admitted=", line)
	}
	return kv, nil
}

// overloadScenario is one scenario of the pool with its in-process
// reference.
type overloadScenario struct {
	in         *serveInputs
	refSummary string
	refCSV     []string
	// Decision metrics of the reference session.
	shed, trips           int
	unservedFrac, meanDel float64
}

func overloadPool(seed int64, k int) ([]overloadScenario, error) {
	var out []overloadScenario
	for i := 0; i < k; i++ {
		in, err := prepareServe(overloadWL, overloadWL.scenarioSeed(seed, i))
		if err != nil {
			return nil, err
		}
		ref, err := transport.PlaySession(overloadWL.setup.transportConfig(hooks{}), in.wire.frames, nil)
		if err != nil {
			return nil, fmt.Errorf("reference PlaySession: %w", err)
		}
		sc := overloadScenario{in: in, refSummary: ref.Summary(), refCSV: csvLines(ref.Result()), shed: ref.Stats().Shed()}
		if b := ref.Breaker(); b != nil {
			sc.trips = b.Trips()
		}
		sc.unservedFrac, sc.meanDel = quality(ref.Result())
		out = append(out, sc)
	}
	return out, nil
}

func overloadPlain(o options, r *run) error {
	t0 := time.Now()
	pool, err := overloadPool(o.Seed, overloadScenarios)
	if err != nil {
		return err
	}
	r.note("inputs and in-process references for %d scenarios took %.2fs (untimed)", len(pool), time.Since(t0).Seconds())
	in := pool[0].in // sizes are alike across the pool

	perRung := (minSamples(0.9) + len(in.busy) - 1) / len(in.busy)
	var setups, rss []float64
	n := 0
	sent := 0
	session := func(sc overloadScenario, period time.Duration, flood bool) (*sessionResult, error) {
		sr, err := runSession(o.Server, o.Out, n, overloadWL.setup, sc.in.wire, period, flood)
		n++
		if err != nil {
			return nil, err
		}
		r.res.Attempted += len(sc.in.wire.frames)
		r.res.Failed += sr.Unacked + len(sr.Errors)
		sent += sc.in.wire.events
		if err := gateAdmission(sc.in.wire.events, sr); err != nil {
			return nil, err
		}
		if err := gateSame("session summary vs PlaySession", []string{sr.Summary}, []string{sc.refSummary}); err != nil {
			return nil, err
		}
		if err := gateSame("per-epoch records vs PlaySession", sr.CSV, sc.refCSV); err != nil {
			return nil, err
		}
		setups = append(setups, sr.Setup.Seconds())
		rss = append(rss, sr.RSSMB)
		return sr, nil
	}

	ladder := make([]rung, len(overloadLadder))
	var nominal []float64
	for i, period := range overloadLadder {
		var ticks, lags, tails []float64
		offered := 0.0
		for k := 0; k < perRung; k++ {
			sc := pool[k%len(pool)]
			offered += float64(sc.in.wire.events) / float64(perRung)
			sr, err := session(sc, period, false)
			if err != nil {
				return err
			}
			ticks = append(ticks, sr.TickMS...)
			lags = append(lags, sr.LagMS...)
			tails = append(tails, median(sr.TickMS[len(sr.TickMS)-minBeyond:]))
		}
		rg := rung{PeriodMS: ms(period), RateEPS: offered / (float64(len(in.busy)) * period.Seconds()), Samples: len(ticks), Ran: true}
		var err error
		if rg.TickP90MS, err = percentile(ticks, 0.9); err != nil {
			return err
		}
		if rg.LagP99MS, err = percentile(lags, 0.99); err != nil {
			return err
		}
		rg.TailMS = median(tails)
		ladder[i] = rg
		if i == 0 {
			nominal = ticks
		}
		if !rg.sustained() {
			break
		}
	}
	var flood, gaps []float64
	for _, sc := range pool {
		sr, err := session(sc, 0, true)
		if err != nil {
			return err
		}
		flood = append(flood, float64(sc.in.wire.events)/sr.Wall.Seconds())
		gaps = append(gaps, sr.GapMS...)
	}
	r.gate(fmt.Sprintf("open loop: admitted + shed = sent and no error frames in all %d sessions (%d events)", n, sent))
	r.gate("server summary and per-epoch records equal transport.PlaySession on the same frames")

	p50, err := percentile(gaps, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(gaps, 0.9)
	if err != nil {
		return err
	}
	rate := median(flood)
	r.metric("setup_s", median(setups), "s")
	r.metric("p50_ms", p50, "ms")
	r.metric("tail_ms", p90, "ms")
	r.metric("rate_per_s", rate, "1/s")
	r.metric("peak_rss_mb", median(rss), "MB")

	r.detail("setup_s", median(setups), "s", len(setups))
	r.detail("epoch_service_p50_ms", p50, "ms", len(gaps))
	r.detail("epoch_service_p90_ms", p90, "ms", len(gaps))
	r.detail("saturated_events_per_s", rate, "1/s", len(flood))
	addTickDetail(r, "tick", nominal)
	best := maxSustained(ladder)
	maxRate := 0.0
	if best >= 0 {
		maxRate = ladder[best].RateEPS
	}
	r.detail("max_rate_eps", maxRate, "1/s", 0)
	for i, rg := range ladder {
		if !rg.Ran {
			continue
		}
		state := "sustained"
		switch {
		case !rg.valid():
			state = "invalid: generator fell behind"
		case !rg.sustained():
			state = "not sustained"
		}
		r.note("rung %d: T=%.2fms offered %.0f ev/s, tick p90 %.2fms (n=%d), tail %.2fms, generator lag p99 %.3fms: %s",
			i, rg.PeriodMS, rg.RateEPS, rg.TickP90MS, rg.Samples, rg.TailMS, rg.LagP99MS, state)
	}
	r.detail("loadgen.lag_p99_ms", ladder[0].LagP99MS, "ms", ladder[0].Samples)
	// Decision metrics pooled over the scenarios.
	var shed, events, trips int
	var unserved, delays []float64
	for _, sc := range pool {
		shed += sc.shed
		events += sc.in.wire.events
		trips += sc.trips
		unserved = append(unserved, sc.unservedFrac)
		delays = append(delays, sc.meanDel)
	}
	r.detail("shed_frac", ratio(float64(shed), float64(events)), "ratio", events)
	r.detail("unserved_frac", median(unserved), "ratio", len(pool))
	r.detail("mean_delay", median(delays), "model", len(pool))
	r.detail("breaker_trips", float64(trips)/float64(len(pool)), "count", len(pool))
	r.detail("peak_rss_mb", median(rss), "MB", n)
	r.rep.Provenance["sessions"] = n
	r.rep.Provenance["scenarios"] = len(pool)
	r.rep.Provenance["events_per_session"] = in.wire.events
	r.rep.Provenance["epochs_per_session"] = len(in.busy)
	r.rep.Provenance["percentiles"] = fmt.Sprintf("p50/p90 of epoch service time over %d epochs of %d saturated sessions, rate their median; tick p50/p90 over %d ticks at the nominal rung T=%s", len(gaps), len(flood), len(nominal), overloadLadder[0])
	return nil
}

// traceServe replays the session's frames in process through
// transport.Engine.HandleFrame twice, untraced and traced, and derives the
// per-layer metrics. Before that it runs one socket session and requires the
// traced run's per-epoch records to equal the server's -csv output.
func traceServe(o options, r *run, w serveWorkload, period time.Duration, intended []string) error {
	in, err := prepareServe(w, w.scenarioSeed(o.Seed, 0))
	if err != nil {
		return err
	}
	sr, err := runSession(o.Server, o.Out, 0, w.setup, in.wire, period, false)
	if err != nil {
		return err
	}
	r.res.Attempted += len(in.wire.frames)
	r.res.Failed += sr.Unacked + len(sr.Errors)

	// Untraced and traced passes alternate; each makes the same calls, so
	// the difference of their medians is the tracing overhead. The last
	// traced pass supplies the spans.
	var tr *tracer
	var seams *seamCounts
	var eng *transport.Engine
	var base, traced []float64
	for k := 0; k < overheadPasses; k++ {
		d, _, err := replay(in.wire, w.setup, nil, nil)
		if err != nil {
			return err
		}
		base = append(base, ms(d))
		tr, seams = newTracer(), &seamCounts{}
		if d, eng, err = replay(in.wire, w.setup, tr, seams); err != nil {
			return err
		}
		traced = append(traced, ms(d))
	}
	tot := layerReport{}
	rr := eng.Result()
	if err := gateSame("traced per-epoch records vs the socket run's -csv", csvLines(rr), sr.CSV); err != nil {
		return err
	}
	r.gate("traced in-process records equal the untraced socket session's -csv records")

	totals, self, counts := tr.layerTotals()
	mean := func(name string, unit float64) float64 {
		return ratio(float64(totals[name]), float64(counts[name])) / unit
	}
	tot["transport.encode_ns"] = mean("transport.encode", 1)
	tot["transport.decode_ns"] = mean("transport.decode", 1)
	tot["serve.parse_event_ns"] = mean("serve.parse_event", 1)
	tot["transport.event_us"] = mean("transport.event", 1e3)

	// Tick spans: self time (minus policy and planner children) on reacting
	// epochs, whole time on incremental ones.
	st := tr.selfTimes()
	var tickSelf, steady int64
	incr := 0
	for i, s := range tr.spans {
		if s.Name != "transport.tick" || s.Epoch >= len(rr.Records) {
			continue
		}
		if rr.Records[s.Epoch].Incremental {
			steady += st[i]
			incr++
		} else {
			tickSelf += st[i]
		}
	}
	tot["serve.tick_self_ms"] = float64(tickSelf) / 1e6
	tot["serve.steady_tick_ms"] = float64(steady) / 1e6
	tot["serve.incremental_epochs"] = float64(incr)
	for _, rec := range rr.Records {
		tot["serve.cold_steps"] += float64(rec.ColdSteps)
		tot["serve.scaled_to_zero"] += float64(rec.ScaledToZero)
	}
	tot["serve.policy_ms"] = float64(totals["serve.policy"]) / 1e6
	tot["repair.run_ms"] = float64(totals["repair.run"]) / 1e6
	tot["core.plan_ms"] = float64(totals["core.plan"]) / 1e6
	tot["core.plans"] = float64(counts["core.plan"])
	tot["repair.adds"] = float64(seams.adds)
	tot["repair.evicts"] = float64(seams.evicts)
	tot["repair.rolled_back"] = float64(seams.rolledBack)
	tot["repair.accept_ratio"] = ratio(float64(seams.adds), float64(seams.adds+seams.rolledBack))
	escalations := 0
	for _, s := range tr.spans {
		if s.Name == "core.plan" && s.Parent >= 0 && tr.spans[s.Parent].Name == "serve.policy" {
			escalations++
		}
	}
	tot["serve.resolve_adopt_ratio"] = ratio(float64(seams.adopted), float64(escalations))

	es := eng.Stats()
	tot["transport.frames"] = float64(es.Frames)
	tot["transport.duplicates"] = float64(es.Duplicates)
	tot["transport.shed_deadline"] = float64(es.ShedDeadline)
	tot["transport.shed_queue"] = float64(es.ShedQueue)
	tot["transport.shed_overload"] = float64(es.ShedOverload)
	tot["transport.late_admits"] = float64(es.LateAdmits)
	tot["transport.wait_p99_epochs"] = float64(eng.WaitPercentile(0.99))
	if b := eng.Breaker(); b != nil {
		tot["transport.breaker_trips"] = float64(b.Trips())
	}
	if g := eng.Guard(); g != nil {
		tot["transport.degraded_epochs"] = float64(g.DegradedEpochs)
		tot["transport.offload_epochs"] = float64(g.OffloadEpochs)
	}
	if period > 0 {
		if lag, err := percentile(sr.LagMS, 0.99); err == nil {
			tot["loadgen.lag_p99_ms"] = lag
		}
	}
	tot["trace.overhead_pct"] = overheadPct(traced, base)

	// Layer shares of the traced wall time, by self time. The benchmark's
	// own ParseEventLine probe is left out: HandleFrame parses the line
	// again inside the event span.
	layers := map[string]float64{
		"transport codec (encode+decode)": float64(totals["transport.encode"] + totals["transport.decode"]),
		"transport event admission":       float64(self["transport.event"]),
		"serve tick self (reacting)":      float64(tickSelf),
		"serve steady ticks":              float64(steady),
		"serve.policy self":               float64(self["serve.policy"]),
		"repair.run":                      float64(totals["repair.run"]),
		"core.plan":                       float64(totals["core.plan"]),
		"transport hello/finish":          float64(totals["transport.hello"] + totals["transport.finish"]),
	}
	share, dominates := dominance(layers, intended)
	if w.stretch > 1 {
		// The stretch exists to exercise the steady path: half the epochs
		// must have been served incrementally.
		dominates = dominates && incr*w.stretch == len(rr.Records)
	}
	tot["trace.intended_share"] = share
	if dominates {
		tot["trace.intended_dominates"] = 1
	}
	r.note("intended layer %v: %.1f%% of traced time, dominates=%v", intended, 100*share, dominates)
	var sum float64
	for _, v := range layers {
		sum += v
	}
	for _, name := range sortedKeys(layers) {
		r.note("layer %-32s %9.2f ms  %5.1f%% of traced time", name, layers[name]/1e6, 100*ratio(layers[name], sum))
	}
	r.note("tracing overhead: traced replay median %.1f ms vs untraced %.1f ms over %d passes each", median(traced), median(base), overheadPasses)
	r.note("epochs %d, incremental %d", len(rr.Records), incr)
	tot.finish(r)
	r.res.Attempted += len(in.wire.frames)
	return tr.write(fmt.Sprintf("%s/%s-seed%d.spans.jsonl.gz", o.Out, o.Workload, o.Seed))
}

// frameSpan names the span around HandleFrame per message type.
var frameSpan = map[byte]string{
	transport.MsgHello:  "transport.hello",
	transport.MsgEvent:  "transport.event",
	transport.MsgTick:   "transport.tick",
	transport.MsgFinish: "transport.finish",
}

// replay feeds the frames through a fresh engine in process: encode,
// decode, parse the event line, HandleFrame. With a tracer each step is a
// span and the daemon's seams are wrapped; with nil it is the untraced
// baseline.
func replay(w *wireFrames, setup serveSetup, tr *tracer, seams *seamCounts) (time.Duration, *transport.Engine, error) {
	h := hooks{}
	if tr != nil {
		h = tracedHooks(tr, seams)
	}
	eng := transport.NewEngine(setup.transportConfig(h))
	br := bufio.NewReader(bytes.NewReader(nil))
	t := time.Now()
	for i := range w.frames {
		if tr != nil {
			tr.epoch = w.slotOf[i]
		}
		id := tr.begin("transport.encode")
		b := transport.Encode(w.frames[i])
		tr.end(id)
		id = tr.begin("transport.decode")
		br.Reset(bytes.NewReader(b))
		fr, err := transport.ReadFrame(br)
		tr.end(id)
		if err != nil {
			return 0, nil, err
		}
		if fr.Type == transport.MsgEvent {
			_, line, err := transport.ParseEventBody(fr.Body)
			if err != nil {
				return 0, nil, err
			}
			id = tr.begin("serve.parse_event")
			_, err = serve.ParseEventLine(line)
			tr.end(id)
			if err != nil {
				return 0, nil, err
			}
		}
		id = tr.begin(frameSpan[fr.Type])
		eng.HandleFrame(fr)
		tr.end(id)
	}
	return time.Since(t), eng, eng.RunErr()
}

// seamCounts tallies what the wrapped seams returned.
type seamCounts struct {
	adds, evicts, rolledBack int // repair results
	adopted                  int // policy outcomes that adopted a re-solve
}

// tracedHooks wraps the planner, the policy and the repair seam in spans
// and tallies their results.
func tracedHooks(tr *tracer, seams *seamCounts) hooks {
	return hooks{
		planner: func(inner func(*model.Instance) (model.Placement, error)) func(*model.Instance) (model.Placement, error) {
			return func(in *model.Instance) (model.Placement, error) {
				id := tr.begin("core.plan")
				defer tr.end(id)
				return inner(in)
			}
		},
		repair: func(inner repairFunc) repairFunc {
			return func(in *model.Instance, m *chaos.Mask, p model.Placement, cfg repair.Config) (*repair.Result, error) {
				id := tr.begin("repair.run")
				res, err := inner(in, m, p, cfg)
				tr.end(id)
				if res != nil {
					seams.adds += len(res.Added)
					seams.evicts += len(res.Evicted)
					seams.rolledBack += res.RolledBack
				}
				return res, err
			}
		},
		policy: func(inner serve.Policy) serve.Policy { return &timedPolicy{inner: inner, tr: tr, seams: seams} },
	}
}

// timedPolicy spans the factory's Policy.Serve and counts adopted re-solves.
type timedPolicy struct {
	inner serve.Policy
	tr    *tracer
	seams *seamCounts
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Serve(ctx *serve.EpochContext) (serve.Outcome, error) {
	id := p.tr.begin("serve.policy")
	out, err := p.inner.Serve(ctx)
	p.tr.end(id)
	if err == nil && out.Resolved {
		p.seams.adopted++
	}
	return out, err
}

func churnTrace(o options, r *run) error {
	return traceServe(o, r, churnWL, 0, []string{"serve tick self (reacting)"})
}

func overloadTrace(o options, r *run) error {
	return traceServe(o, r, overloadWL, overloadLadder[0], []string{"repair.run", "core.plan"})
}

// dominance returns the intended layers' share of the traced time and
// whether their sum exceeds every other single layer.
func dominance(layers map[string]float64, intended []string) (float64, bool) {
	sum, mine := 0.0, 0.0
	for _, v := range layers {
		sum += v
	}
	for _, name := range intended {
		mine += layers[name]
	}
	dominates := true
	for name, v := range layers {
		isMine := false
		for _, n := range intended {
			isMine = isMine || n == name
		}
		if !isMine && v >= mine {
			dominates = false
		}
	}
	return ratio(mine, sum), dominates
}
