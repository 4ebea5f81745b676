// Command perfbench is the repository benchmark. One invocation runs one
// workload from a seed, measures it for a fixed window, checks the
// program's outputs, and prints every metric by name with its unit; the
// last line of standard output is a JSON result object.
//
//	bash perfbench/run.sh --workload revision --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant (the same workload with harness-side wrappers around the
// program's public seams, in untraced and traced phases of one window) and
// reports the per-layer metrics. Any failed output check exits non-zero
// without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	Name, Unit string
}

// e2eMetrics are the end-to-end metrics every untraced run reports. The
// names are workload-agnostic so every workload reports every one; the
// per-workload meaning is printed next to each value (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload bypasses reports 0.
var layerMetrics = []metricDef{
	{"collect.server_ingest_us", "us"},
	{"collect.ack_p50_ms", "ms"},
	{"collect.ack_p99_ms", "ms"},
	{"collect.wire_bytes_per_bundle", "B"},
	{"collect.client_retries", "count"},
	{"seglog.append_p50_us", "us"},
	{"seglog.append_p99_us", "us"},
	{"seglog.fsyncs_per_bundle", "count"},
	{"seglog.disk_bytes_per_bundle", "B"},
	{"serve.notify_p50_us", "us"},
	{"serve.notify_p99_us", "us"},
	{"serve.sched_wait_p50_ms", "ms"},
	{"serve.sched_wait_p99_ms", "ms"},
	{"serve.publish_p50_ms", "ms"},
	{"serve.publish_p99_ms", "ms"},
	{"serve.report_bytes", "B"},
	{"serve.analyses_per_notify", "frac"},
	{"core.incr_report_p50_ms", "ms"},
	{"core.incr_report_p99_ms", "ms"},
	{"core.step1_cache_hit_rate", "frac"},
	{"core.step1_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.normalize_ms", "ms"},
	{"core.detect_ms", "ms"},
	{"core.step5_ms", "ms"},
	{"revision.sync_ms", "ms"},
	{"revision.compare_ms", "ms"},
	{"revision.gate_us", "us"},
	{"revision.shared_frac", "frac"},
	{"revision.delta_over_batch", "frac"},
	{"parallel.busy_frac", "frac"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.latency_tail_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.reconcile_err_frac", "frac"},
}

// reconcileBound is the largest residual a traced run's decomposition
// may leave against its end-to-end number before the run fails.
const reconcileBound = 0.10

// setupRepeats is how many times a run builds its whole set-up; setup_s
// is the median, and all but the last set-up are torn down unused.
const setupRepeats = 3

// options are one run's parameters.
type options struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// Smoke shrinks every input to a few items (tests only).
	Smoke bool
	// Dir is a private scratch directory for stores; removed afterwards.
	Dir string
}

// outcome is what a workload run measured.
type outcome struct {
	Attempted, Failed int64
	// E2E holds the end-to-end metrics by name (untraced runs).
	E2E map[string]float64
	// Layers holds the per-layer metrics by name (traced runs).
	Layers map[string]float64
	// Notes are human-readable lines: what each generic metric means on
	// this workload, sample counts, percentiles.
	Notes []string
	// GenLateMS is how far behind schedule an open-loop generator ran
	// (its tail percentile), stamped on the result; nil for closed loops.
	GenLateMS *float64
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload end to end: set-up, timed window,
// output checks. A non-nil error means a failed check or a broken run.
type workloadFunc func(opts options) (*outcome, error)

type workloadDef struct {
	Name string
	Run  workloadFunc
}

// workloads is the registry, in BENCHMARK.json order.
var workloads = []workloadDef{
	{"fresh", runFresh},
	{"revision", runRevision},
}

// unlisted workloads run on request but are not in BENCHMARK.json, so no
// bound gates them, and their per-layer figures outside layerMetrics
// appear in their notes only. ingest is fsync-bound: on a disk shared
// with other tenants its throughput and ack latency swing by a factor of
// two between runs of the same code, past any bound the contract allows.
// diagnose is CPU-bound like revision; gating both would leave too little
// of the contract's time limit for windows long enough to average out a
// shared host's slow spells (see README.md).
var unlisted = []workloadDef{
	{"ingest", runIngest},
	{"diagnose", runDiagnose},
}

func lookupWorkload(name string) (workloadFunc, error) {
	var names []string
	for _, w := range append(workloads, unlisted...) {
		if w.Name == name {
			return w.Run, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult selects the metric set the run mode reports. A metric the
// workload did not produce is an error for end-to-end metrics and 0
// (layer bypassed) for per-layer ones.
func buildResult(out *outcome, traced bool) (*result, error) {
	res := &result{Correct: true, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: make(map[string]metricValue)}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	defs, values := e2eMetrics, out.E2E
	if traced {
		defs, values = layerMetrics, out.Layers
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not report %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fresh or revision (or, unlisted, ingest or diagnose)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	// Stores live under the working directory (the checkout), never in
	// the system temp directory.
	base := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	opts := options{
		Workload: *name,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *traceFlag == 1,
		Dir:      dir,
	}
	stamp := newStamp(opts)
	out, err := wf(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	res, err := buildResult(out, opts.Trace)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	stamp.GenLateMS = out.GenLateMS
	printTable(stdout, stamp, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// stamp records the conditions a result is valid under.
type stamp struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	WindowS    float64  `json:"windowS"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numcpu"`
	GoVersion  string   `json:"go"`
	StoreFS    string   `json:"storeFS"`
	GenLateMS  *float64 `json:"genLateMs,omitempty"`
}

func newStamp(opts options) stamp {
	return stamp{
		Workload:   opts.Workload,
		Seed:       opts.Seed,
		Trace:      opts.Trace,
		WindowS:    opts.Window.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		StoreFS:    fsType(opts.Dir),
	}
}

// printTable writes the human-readable part of the result: the validity
// stamp, the workload notes, then every reported metric with its unit.
func printTable(w io.Writer, st stamp, out *outcome, res *result) {
	sj, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", sj)
	for _, n := range out.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d failed_frac %.6g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
}
