package main

// In-memory span tracing for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each layer's public functions
// and through the timing wrappers it installs on the daemon's seams. The
// traced paths are single-threaded (the engine serializes frames, the solves
// run with one worker), so spans nest strictly and a span's self time is its
// duration minus its direct children's.

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// overheadPasses is how many untraced and traced passes alternate to
// measure the tracing overhead.
const overheadPasses = 3

// overheadPct is the traced passes' median wall time over the untraced
// passes', as a percentage above it.
func overheadPct(traced, untraced []float64) float64 {
	return 100 * (median(traced) - median(untraced)) / median(untraced)
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Epoch  int    `json:"epoch"`  // the epoch (or solve) the span belongs to
}

type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	epoch int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing, so
// one code path serves the traced run and its untraced baseline.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Epoch: t.epoch})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %q closed out of order", t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus its direct children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerTotals sums, per span name, the total and the self time in ns.
func (t *tracer) layerTotals() (total, self map[string]int64, count map[string]int) {
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	st := t.selfTimes()
	for i, s := range t.spans {
		total[s.Name] += s.dur()
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return total, self, count
}

// write stores the spans gzip-compressed as JSON lines, one span per line
// (a serving trace holds a few hundred thousand).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
