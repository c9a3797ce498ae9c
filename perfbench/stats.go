package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0,1)). It
// refuses a quantile with fewer than minBeyond samples beyond it, so a p90
// needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - idx - 1; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// minSamples is the smallest sample count whose q-quantile percentile
// accepts.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if n-idx-1 >= minBeyond {
			return n
		}
	}
}

// median is the plain median (mean of the middle pair for even counts), for
// small per-run repetition counts such as set-up times; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rung is one offered-load step of the open-loop ladder.
type rung struct {
	PeriodMS  float64 // epoch period T
	RateEPS   float64 // offered events per second
	TickP90MS float64 // tick due → ack p90
	// TailMS is the median tick latency over each session's last ticks; above
	// the period it means the backlog grew through the session.
	TailMS   float64
	LagP99MS float64 // generator lateness
	Samples  int
	Ran      bool
}

// valid reports whether the generator kept to the schedule: a rung whose
// sends ran late by more than half a period measured the generator.
func (r rung) valid() bool { return r.Ran && r.LagP99MS <= r.PeriodMS/2 }

// sustained reports whether the program kept up at this rung: p90 tick
// latency within the period and no backlog growing through the session.
func (r rung) sustained() bool {
	return r.valid() && r.TickP90MS <= r.PeriodMS && r.TailMS <= r.PeriodMS
}

// maxSustained walks the ladder from the lowest offered rate up and returns
// the index of the last sustained rung before the first rung that was not
// sustained or not valid; -1 when the first rung already fails.
func maxSustained(ladder []rung) int {
	best := -1
	for i, r := range ladder {
		if !r.sustained() {
			break
		}
		best = i
	}
	return best
}
