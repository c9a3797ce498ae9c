package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/transport"
)

func smallScript(t *testing.T) *serveInputs {
	t.Helper()
	w := churnWL
	w.spec = scenarioSpec{Nodes: 6, Users: 30, Slots: 6, Radius: 0.5}
	in, err := prepareServe(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The stretch keeps every event, in order, and leaves the odd epochs empty.
func TestStretchKeepsEventsAndEmptiesOddEpochs(t *testing.T) {
	orig, err := recordScript(scenarioSpec{Nodes: 6, Users: 30, Slots: 6, Radius: 0.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := stretch(orig, 2)
	if len(st.Events) != len(orig.Events) || st.Meta.NumSlots != 2*orig.Meta.NumSlots {
		t.Fatalf("stretch: %d events over %d slots from %d over %d",
			len(st.Events), st.Meta.NumSlots, len(orig.Events), orig.Meta.NumSlots)
	}
	for i := range st.Events {
		a, b := orig.Events[i], st.Events[i]
		if b.Slot != 2*a.Slot || b.Kind != a.Kind || b.ID != a.ID {
			t.Fatalf("event %d: %+v stretched to %+v", i, a, b)
		}
	}
	in := smallScript(t)
	if len(in.busy) != st.Meta.NumSlots {
		t.Fatalf("%d ticks for %d epochs", len(in.busy), st.Meta.NumSlots)
	}
	for e, busy := range in.busy {
		if e%2 == 1 && busy {
			t.Fatalf("odd epoch %d carries events", e)
		}
	}
}

// A percentile needs at least ten samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted with 9 beyond")
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	for _, q := range []float64{0.5, 0.75, 0.9, 0.99} {
		n := minSamples(q)
		if _, err := percentile(make([]float64, n), q); err != nil {
			t.Errorf("minSamples(%v) = %d rejected: %v", q, n, err)
		}
		if _, err := percentile(make([]float64, n-1), q); err == nil {
			t.Errorf("p%v accepted %d samples, below minSamples", 100*q, n-1)
		}
	}
	if n := minSamples(0.9); n != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", n)
	}
}

// The ladder's answer is the last sustained rung before the first failure,
// and a rung whose generator fell behind ends the walk.
func TestMaxSustained(t *testing.T) {
	ok := func(T float64) rung {
		return rung{PeriodMS: T, TickP90MS: T / 2, TailMS: T / 4, LagP99MS: 0.1, Ran: true}
	}
	slow := func(T float64) rung { r := ok(T); r.TickP90MS = 2 * T; return r }
	backlog := func(T float64) rung { r := ok(T); r.TailMS = 2 * T; return r }
	lagging := func(T float64) rung { r := ok(T); r.LagP99MS = T; return r }
	cases := []struct {
		name   string
		ladder []rung
		want   int
	}{
		{"all sustained", []rung{ok(40), ok(28), ok(20)}, 2},
		{"first fails", []rung{slow(40), ok(28)}, -1},
		{"stops at first failure", []rung{ok(40), slow(28), ok(20)}, 0},
		{"growing backlog fails", []rung{ok(40), backlog(28)}, 0},
		{"generator behind is invalid", []rung{ok(40), lagging(28), ok(20)}, 0},
		{"not run", []rung{ok(40), {}}, 0},
	}
	for _, c := range cases {
		if got := maxSustained(c.ladder); got != c.want {
			t.Errorf("%s: maxSustained = %d, want %d", c.name, got, c.want)
		}
	}
	if lagging(10).valid() {
		t.Error("a rung with generator lag above half its period is valid")
	}
}

// Open-loop schedule: epoch s's events fall in [s·T, (s+1)·T) and its tick
// is due at (s+1)·T.
func TestOpenLoopSchedule(t *testing.T) {
	in := smallScript(t)
	const T = 10 * time.Millisecond
	due := openLoopSchedule(in.wire, T)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("frame %d due %v before frame %d at %v", i, due[i], i-1, due[i-1])
		}
		s := time.Duration(in.wire.slotOf[i])
		switch in.wire.frames[i].Type {
		case transport.MsgEvent:
			if due[i] < s*T || due[i] >= (s+1)*T {
				t.Fatalf("event frame %d of epoch %d due at %v", i, s, due[i])
			}
		case transport.MsgTick:
			if due[i] != (s+1)*T {
				t.Fatalf("tick of epoch %d due at %v", s, due[i])
			}
		}
	}
}

func TestGateOrderedFires(t *testing.T) {
	good := &sessionResult{Accepted: 10}
	if err := gateOrdered(10, good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*sessionResult{
		"one not accepted": {Accepted: 9, Unacked: 1},
		"one shed":         {Accepted: 9, Shed: 1},
		"error frame":      {Accepted: 10, Errors: []string{"daemon: boom"}},
	} {
		if gateOrdered(10, bad) == nil {
			t.Errorf("gateOrdered passed with %s", name)
		}
	}
}

func TestGateAdmissionFires(t *testing.T) {
	sum := "frames=13 events=10 admitted=7 dups=0 shed_deadline=1 shed_queue=1 shed_overload=1 shed_finished=0 late=0"
	good := &sessionResult{Accepted: 7, Shed: 3, Summary: sum}
	if err := gateAdmission(10, good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*sessionResult{
		"event lost":          {Accepted: 7, Shed: 2, Unacked: 1, Summary: sum},
		"server miscounts":    {Accepted: 7, Shed: 3, Summary: strings.Replace(sum, "admitted=7", "admitted=6", 1)},
		"client and server":   {Accepted: 6, Shed: 4, Summary: sum},
		"error frame":         {Accepted: 7, Shed: 3, Summary: sum, Errors: []string{"bad event line"}},
		"summary unparseable": {Accepted: 7, Shed: 3, Summary: "garbage"},
	} {
		if gateAdmission(10, bad) == nil {
			t.Errorf("gateAdmission passed with %s", name)
		}
	}
}

// A corrupted per-epoch record or summary fails the reference comparison.
func TestGateSameFiresOnCorruptedRecord(t *testing.T) {
	in := smallScript(t)
	d, err := newDaemon(churnWL.setup, in.script.Meta)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.RunScript(in.script)
	if err != nil {
		t.Fatal(err)
	}
	ref := csvLines(rr)
	eng, err := transport.PlaySession(churnWL.setup.transportConfig(hooks{}), in.wire.frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := csvLines(eng.Result())
	if err := gateSame("records", got, ref); err != nil {
		t.Fatalf("wire replay differs from RunScript: %v", err)
	}
	rr.Records[2].Cost += 1
	if gateSame("records", csvLines(rr), got) == nil {
		t.Error("gateSame passed a record with a corrupted cost")
	}
	if gateSame("records", got[:len(got)-1], ref) == nil {
		t.Error("gateSame passed a record stream missing its last epoch")
	}
	sum := eng.Summary()
	if gateSame("summary", []string{strings.Replace(sum, "admitted=", "admitted=1", 1)}, []string{sum}) == nil {
		t.Error("gateSame passed a corrupted summary")
	}
}

func TestGateShardedFires(t *testing.T) {
	in, plan, err := clusteredInstance(600, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := combine.DefaultShardedConfig()
	cfg.Workers = 1
	res, err := combine.RunSharded(in, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateSharded(in, res, res.Objective); err != nil {
		t.Fatal(err)
	}
	clone := func() *combine.ShardedResult {
		c := *res
		c.Placement = res.Placement.Clone()
		return &c
	}
	bad := clone()
	bad.Unserved = 1
	if gateSharded(in, bad, res.Objective) == nil {
		t.Error("passed an unserved request")
	}
	if gateSharded(in, res, math.Nextafter(res.Objective, math.Inf(1))) == nil {
		t.Error("passed an objective one ulp off the first iteration's")
	}
	bad = clone()
	bad.BudgetMet = false
	if gateSharded(in, bad, res.Objective) == nil {
		t.Error("passed a result that missed its budget")
	}
	bad = clone()
	for i := range bad.Placement.X {
		bad.Placement.X[i][0] = true // every service on node 0 overflows its storage
	}
	if gateSharded(in, bad, res.Objective) == nil {
		t.Error("passed a placement over node 0's storage")
	}
}

func TestGateExactFires(t *testing.T) {
	good := exactPair{Name: "p", OptOptimal: true, ILPOptimal: true, OptObj: 2331.40754697, ILPObj: 2331.40754697 + 1e-13}
	if err := gateExact(good); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]exactPair{
		"opt not optimal": {Name: "p", ILPOptimal: true, OptObj: 1, ILPObj: 1},
		"ilp not optimal": {Name: "p", OptOptimal: true, OptObj: 1, ILPObj: 1},
		"optima differ":   {Name: "p", OptOptimal: true, ILPOptimal: true, OptObj: 2331.4, ILPObj: 2331.4001},
	} {
		if gateExact(bad) == nil {
			t.Errorf("gateExact passed with %s", name)
		}
	}
}

// BENCHMARK.json names exactly the metrics the runs report.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the command reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, the command reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m != (struct{ Name, Unit, Better string }{layerMetrics[i].Name, layerMetrics[i].Unit, layerMetrics[i].Better}) {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, layerMetrics[i])
		}
	}
}

// The client against an in-process server, in all three disciplines: every
// event gets its disposition, the result arrives, and the session matches
// the server's own engine. Run under -race this covers the reader
// goroutine's hand-off.
func TestSessionDisciplines(t *testing.T) {
	in := smallScript(t)
	for _, c := range []struct {
		name   string
		setup  serveSetup
		period time.Duration
		flood  bool
	}{
		{"closed loop", churnWL.setup, 0, false},
		{"open loop", overloadWL.setup, 2 * time.Millisecond, false},
		{"flood", overloadWL.setup, 0, true},
	} {
		sock := t.TempDir() + "/s.sock"
		srv, err := transport.Listen("unix", sock, c.setup.transportConfig(hooks{}))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		res, err := drive(endpoint{
			dial:  func() (net.Conn, error) { return net.Dial("unix", sock) },
			start: time.Now(),
		}, in.wire, c.period, c.flood)
		srv.Close()
		if serr := <-done; serr != nil {
			t.Fatalf("%s: serve: %v", c.name, serr)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Summary != srv.Engine().Summary() {
			t.Fatalf("%s: client got summary %q, engine has %q", c.name, res.Summary, srv.Engine().Summary())
		}
		if res.Accepted+res.Shed != in.wire.events || res.Unacked != 0 || len(res.Errors) != 0 {
			t.Fatalf("%s: %d events: accepted %d shed %d unacked %d errors %v",
				c.name, in.wire.events, res.Accepted, res.Shed, res.Unacked, res.Errors)
		}
		if !c.flood && len(res.TickMS) != len(in.busy) {
			t.Fatalf("%s: %d tick latencies for %d epochs", c.name, len(res.TickMS), len(in.busy))
		}
		if closed := c.period == 0 && !c.flood; closed != (len(res.TickSentMS) == len(in.busy)) {
			t.Fatalf("%s: %d tick-sent latencies for %d epochs", c.name, len(res.TickSentMS), len(in.busy))
		}
		if c.flood && len(res.GapMS) != len(in.busy) {
			t.Fatalf("flood: %d service gaps for %d epochs", len(res.GapMS), len(in.busy))
		}
	}
}

// A span's self time is its duration minus its direct children's; a nil
// tracer records nothing.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	leaf := tr.begin("leaf")
	time.Sleep(time.Millisecond)
	tr.end(leaf)
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	self := tr.selfTimes()
	sp := tr.spans
	if sp[inner].Parent != outer || sp[leaf].Parent != inner || sp[sibling].Parent != outer {
		t.Fatalf("parents: %+v", sp)
	}
	if want := sp[outer].dur() - sp[inner].dur() - sp[sibling].dur(); self[outer] != want {
		t.Errorf("outer self %d, want %d", self[outer], want)
	}
	if want := sp[inner].dur() - sp[leaf].dur(); self[inner] != want {
		t.Errorf("inner self %d, want %d", self[inner], want)
	}
	if self[leaf] != sp[leaf].dur() {
		t.Errorf("leaf self %d, want its duration %d", self[leaf], sp[leaf].dur())
	}
	var none *tracer
	none.end(none.begin("ignored"))
}
