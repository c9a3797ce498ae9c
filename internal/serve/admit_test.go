package serve

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/stats"
)

// findActive is the reference lookup: the position of the first active
// request with the given ID, -1 if none.
func findActive(active []msvc.Request, id int) int {
	for i := range active {
		if active[i].ID == id {
			return i
		}
	}
	return -1
}

// oracleAdmission is the reference admission algorithm the daemon's indexed
// admit must reproduce: a linear first-match scan per depart or move and an
// in-place removal per departure.
type oracleAdmission struct {
	maxBatch int
	active   []msvc.Request
	queue    []Event
}

// admit drains the events due at slot exactly as Daemon.admit's contract
// states and returns the admission telemetry it would record.
func (o *oracleAdmission) admit(slot int) EpochRecord {
	var rec EpochRecord
	arrivals := 0
	var rest []Event
	for _, ev := range o.queue {
		if ev.Slot > slot {
			rest = append(rest, ev)
			continue
		}
		switch ev.Kind {
		case EvArrive:
			if o.maxBatch > 0 && arrivals >= o.maxBatch {
				ev.Slot = slot + 1
				rec.Deferred++
				rest = append(rest, ev)
				continue
			}
			req := ev.Req
			req.ID = ev.ID
			req.Chain = append([]int(nil), ev.Req.Chain...)
			req.EdgeData = append([]float64(nil), ev.Req.EdgeData...)
			o.active = append(o.active, req)
			arrivals++
			rec.Arrived++
		case EvDepart:
			if i := findActive(o.active, ev.ID); i >= 0 {
				o.active = append(o.active[:i], o.active[i+1:]...)
				rec.Departed++
			}
		case EvMove:
			if i := findActive(o.active, ev.ID); i >= 0 && o.active[i].Home != ev.Node {
				o.active[i].Home = ev.Node
				rec.Moved++
			}
		}
	}
	o.queue = rest
	return rec
}

// TestAdmitMatchesOracle: on seeded random batches the daemon's active set
// equals the reference admission's element for element after every tick,
// and so do the admission counters. IDs come from a small range so batches
// hit every awkward case: a depart then a re-arrival of the same ID in one
// epoch, a move after a depart, duplicate live IDs, departs and moves of
// unknown IDs, future-slot events, and MaxBatch deferral.
func TestAdmitMatchesOracle(t *testing.T) {
	g, cat, pool := testScenario(t, 8, 24, 91)
	// An empty placement keeps every tick cheap: the test is about which
	// requests are active and in what order, not about how they are served.
	empty := func(*model.Instance) (model.Placement, error) {
		return model.NewPlacement(cat.Len(), g.N()), nil
	}
	const idRange = 12
	for seed := int64(1); seed <= 40; seed++ {
		r := stats.NewRand(seed)
		cfg := testConfig(g, cat)
		cfg.Planner = empty
		cfg.Policy = NonePolicy{}
		cfg.MaxBatch = []int{0, 0, 1, 3}[r.Intn(4)]
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := &oracleAdmission{maxBatch: cfg.MaxBatch}
		for epoch := 0; epoch < 12; epoch++ {
			var batch []Event
			for k := r.Intn(14); k > 0; k-- {
				ev := Event{Slot: epoch + max(0, r.Intn(5)-2), ID: r.Intn(idRange)}
				switch r.Intn(6) {
				case 0, 1, 2:
					ev.Kind = EvArrive
					ev.Req = pool[r.Intn(len(pool))]
				case 3, 4:
					ev.Kind = EvDepart
				default:
					ev.Kind = EvMove
					ev.Node = r.Intn(g.N())
				}
				batch = append(batch, ev)
			}
			d.Ingest(batch...)
			o.queue = append(o.queue, batch...)
			want := o.admit(epoch)
			rec, err := d.Tick()
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			if !reflect.DeepEqual(d.active, o.active) && (len(d.active) > 0 || len(o.active) > 0) {
				t.Fatalf("seed %d epoch %d: active diverged\n got %v\nwant %v",
					seed, epoch, ids(d.active), ids(o.active))
			}
			if rec.Arrived != want.Arrived || rec.Departed != want.Departed ||
				rec.Moved != want.Moved || rec.Deferred != want.Deferred {
				t.Fatalf("seed %d epoch %d: counters arrived/departed/moved/deferred = %d/%d/%d/%d, want %d/%d/%d/%d",
					seed, epoch, rec.Arrived, rec.Departed, rec.Moved, rec.Deferred,
					want.Arrived, want.Departed, want.Moved, want.Deferred)
			}
		}
	}
}

// TestAdmitDuplicateLiveIDs pins the first-live-match rule on a hand-built
// batch: with three live copies of one ID, each depart retires the earliest
// survivor, and a move in between re-homes the earliest one.
func TestAdmitDuplicateLiveIDs(t *testing.T) {
	g, cat, pool := testScenario(t, 8, 6, 92)
	cfg := testConfig(g, cat)
	cfg.Policy = NonePolicy{}
	cfg.Planner = func(*model.Instance) (model.Placement, error) {
		return model.NewPlacement(cat.Len(), g.N()), nil
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracleAdmission{}
	req := func(i int) msvc.Request { return pool[i%len(pool)] }
	batches := [][]Event{
		{
			{Kind: EvArrive, ID: 5, Req: req(0)},
			{Kind: EvArrive, ID: 7, Req: req(1)},
			{Kind: EvArrive, ID: 5, Req: req(2)},
			{Kind: EvArrive, ID: 5, Req: req(3)},
		},
		{
			{Slot: 1, Kind: EvDepart, ID: 5},
			{Slot: 1, Kind: EvMove, ID: 5, Node: (req(2).Home + 1) % g.N()},
			{Slot: 1, Kind: EvDepart, ID: 5},
			{Slot: 1, Kind: EvArrive, ID: 5, Req: req(4)},
		},
		{
			{Slot: 2, Kind: EvDepart, ID: 5},
			{Slot: 2, Kind: EvDepart, ID: 5},
			{Slot: 2, Kind: EvDepart, ID: 5},
			{Slot: 2, Kind: EvMove, ID: 7, Node: (req(1).Home + 1) % g.N()},
		},
	}
	for epoch, batch := range batches {
		d.Ingest(batch...)
		o.queue = append(o.queue, batch...)
		o.admit(epoch)
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.active, o.active) {
			t.Fatalf("epoch %d: active %v, want %v", epoch, ids(d.active), ids(o.active))
		}
	}
	if len(d.active) != 1 || d.active[0].ID != 7 || len(d.byID) != 1 || len(d.extraIDs) != 0 {
		t.Fatalf("after all departs: active %v, index %v, extra %v", ids(d.active), d.byID, d.extraIDs)
	}
}

func ids(reqs []msvc.Request) []int {
	out := make([]int, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].ID
	}
	return out
}
