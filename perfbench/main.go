// Command perfbench is the repository benchmark: four workloads over the
// SoCL serving daemon and solvers, each gated on correctness, reporting
// end-to-end metrics untraced and per-layer metrics from a separate traced
// run. Run it through run.sh from the repository root, which builds
// soclserved and this program from source:
//
//	bash perfbench/run.sh --workload serve_churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before it
// carries the detailed report (provenance, the issue-level metrics, gates).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median (detail only).
	N int `json:"n,omitempty"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail line and the saved run record.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Provenance map[string]any    `json:"provenance"`
	Detail     map[string]metric `json:"detail"`
	Gates      []string          `json:"gates"`
	Notes      []string          `json:"notes,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// options are the command's arguments.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Server   string // soclserved binary
	Out      string // scratch and output directory, relative to the checkout
	Root     string // checkout root, for the source digest
}

// run is one workload's outcome before rendering.
type run struct {
	res result
	rep report
}

func (r *run) detail(name string, v float64, unit string, n int) {
	r.rep.Detail[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *run) metric(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) gate(desc string) { r.rep.Gates = append(r.rep.Gates, desc) }

func (r *run) note(format string, a ...any) {
	r.rep.Notes = append(r.rep.Notes, fmt.Sprintf(format, a...))
}

// endToEnd lists the metrics every untraced run reports, with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// checkMetrics verifies a run reports exactly the contract's metric set.
func checkMetrics(trace bool, got map[string]metric) error {
	want := map[string]string{}
	if trace {
		for _, m := range layerMetrics {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.Name] = m.Unit
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, the contract has %d", len(got), len(want))
	}
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s [%s] is not in the contract", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

type workload struct {
	name  string
	plain func(o options, r *run) error // end-to-end metrics, untraced
	trace func(o options, r *run) error // per-layer metrics, traced
}

var workloads = []workload{
	{"serve_churn", churnPlain, churnTrace},
	{"serve_overload", overloadPlain, overloadTrace},
	{"solve_sharded", shardedPlain, shardedTrace},
	{"solve_exact", exactPlain, exactTrace},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: serve_churn | serve_overload | solve_sharded | solve_exact")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.Server, "server", ".bench_build/soclserved", "soclserved binary built from the checkout")
	flag.StringVar(&o.Out, "out", ".bench_build/out", "scratch and report directory")
	flag.StringVar(&o.Root, "root", ".", "checkout root")
	flag.Parse()
	o.Trace = trace == 1

	var w *workload
	for i := range workloads {
		if workloads[i].name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil || (trace != 0 && trace != 1) || o.Seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", names())
		os.Exit(2)
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r := &run{
		res: result{Metrics: map[string]metric{}},
		rep: report{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Detail: map[string]metric{}},
	}
	r.rep.Provenance = provenance(o)
	fn := w.plain
	if o.Trace {
		fn = w.trace
	}
	err := fn(o, r)
	if err == nil {
		err = checkMetrics(o.Trace, r.res.Metrics)
	}
	if err != nil {
		r.rep.Error = err.Error()
		r.res.Failed++
		if r.res.Attempted < r.res.Failed {
			r.res.Attempted = r.res.Failed
		}
	}
	r.res.Correct = err == nil && r.res.Failed == 0
	if err := save(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving report:", err)
	}
	line, _ := json.Marshal(r.rep)
	fmt.Println(string(line))
	out, _ := json.Marshal(r.res)
	fmt.Println(string(out))
	if !r.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s\n", o.Workload, r.rep.Error)
		os.Exit(1)
	}
}

func names() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func save(o options, r *run) error {
	name := fmt.Sprintf("%s-seed%d-trace%v.json", o.Workload, o.Seed, o.Trace)
	b, err := json.MarshalIndent(struct {
		Result result `json:"result"`
		Report report `json:"report"`
	}{r.res, r.rep}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.Out, name), b, 0o644)
}

// provenance stamps the host and the code: cpus, GOMAXPROCS, Go version,
// the commit when the checkout is a git repository (run.sh passes it), and
// always a digest of the Go sources under test.
func provenance(o options) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest(o.Root),
		"seed":          o.Seed,
		"seconds":       o.Seconds,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/ in
// path order, identifying the program under test without git.
func sourceDigest(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selfRSSMB is this process's peak resident set in MiB: the program under
// test for the in-process solve workloads.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
