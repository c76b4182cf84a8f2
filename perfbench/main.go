// Command perfbench is SOFYA's end-to-end benchmark. Each invocation
// generates one workload's inputs, sets the program up several times,
// warms it, measures it for a fixed time, checks every output against
// a reference, and prints the metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload align-paper --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and a traced window and prints the per-layer metrics. NOTES.md in
// this directory explains the workloads and metrics; run.py builds the
// command and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are one invocation's settings.
type opts struct {
	seed   int64
	window time.Duration
	trace  bool
	cache  string // directory for generated inputs worth keeping
	// prepare only generates the inputs into cache. Measuring in a
	// process that did not generate them keeps every measured process
	// in the same state: input generation warms process-wide caches
	// (strsim's profile memo) that the measured program also uses.
	prepare bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, taken from an
// untraced run: the ones that hold still on a host whose CPU steal
// swings between runs. The wall-clock metrics (wallMetricDefs) drift
// with that steal by up to half their value, so they are reported
// beside them, and as per-layer metrics of the traced run, but not
// gated.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"queries_per_op", "count"},
	{"mem_mb", "MB"},
	{"ok_share", "ratio"},
}

// wallMetricDefs are the wall-clock metrics of a window.
var wallMetricDefs = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// layerMetrics are the traced run's per-layer metrics. A layer a
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"kb.load_s", "s"},
	{"kb.freeze_s", "s"},
	{"kb.snapshot_open_s", "s"},
	{"candidates.open_s", "s"},
	{"candidates.topk_us", "us"},
	{"candidates.heap_mb", "MB"},
	{"sparql.sample_us", "us"},
	{"sparql.sample_rows", "count"},
	{"sparql.objects_us", "us"},
	{"sparql.objects_rows", "count"},
	{"sparql.overlap_us", "us"},
	{"sparql.overlap_rows", "count"},
	{"sparql.preds_us", "us"},
	{"sparql.preds_rows", "count"},
	{"sparql.literal_us", "us"},
	{"sparql.literal_rows", "count"},
	{"endpoint.k_calls_per_op", "count"},
	{"endpoint.kp_calls_per_op", "count"},
	{"endpoint.kp_rows_per_op", "count"},
	{"endpoint.k_ms_per_op", "ms"},
	{"endpoint.kp_ms_per_op", "ms"},
	{"endpoint.cache_hit_share", "ratio"},
	{"endpoint.coalesced_per_op", "count"},
	{"endpoint.decorator_self_ms_per_op", "ms"},
	{"wire.reqs_per_op", "count"},
	{"wire.resp_kb_per_op", "KiB"},
	{"wire.client_ms_per_op", "ms"},
	{"server.handler_us", "us"},
	{"server.exec_us", "us"},
	{"shard.merge_self_ms_per_op", "ms"},
	{"shard.rows_kept_share", "ratio"},
	{"cluster.replica_errors", "count"},
	{"cluster.unhealthy", "count"},
	{"admission.queued_share", "ratio"},
	{"admission.shed_share", "ratio"},
	{"core.self_ms_per_op", "ms"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cpu_share", "ratio"},
	{"host.steal_share", "ratio"},
	{"bench.late_ms", "ms"},
	{"bench.trace_overhead_share", "ratio"},
	{"wall.ops_per_s", "1/s"},
	{"wall.p50_ms", "ms"},
	{"wall.tail_ms", "ms"},
}

func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// runtimeMetrics fills the runtime and host rows of a traced window.
func runtimeMetrics(m map[string]float64, s span, ops float64) {
	m["go.alloc_kb_per_op"] = ratio(float64(s.allocBytes)/1024, ops)
	m["go.gc_cpu_share"] = s.gcShare
	m["host.steal_share"] = s.stealShare
}

// outcome is one workload run's verdict and metrics.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	wall              map[string]float64 // untraced runs only
	stealShare        float64
	problems          []string
}

// note records the non-nil errors for the report.
func (o *outcome) note(errs ...error) {
	for _, err := range errs {
		if err != nil {
			o.problems = append(o.problems, err.Error())
		}
	}
}

// workloads are the benchmark's workloads by name; NOTES.md gives the
// reason for each.
var workloads = map[string]func(opts) (*outcome, error){
	"align-paper":   runAlignPaper,
	"align-cluster": runAlignCluster,
	"serve-open":    runServeOpen,
	"align-scale":   runAlignScale,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", 1, "orders the operations and draws the open-loop schedule")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		trace   = flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
		cache   = flag.String("cache", ".bench_build/inputs", "directory for generated inputs kept across runs")
		source  = flag.String("source", "unknown", "source revision recorded with the result")
		prepare = flag.Bool("prepare", false, "only generate the workload's inputs into --cache")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, cache: *cache, prepare: *prepare}
	out, err := wl(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.prepare {
		return 0
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	defs := endToEndMetrics
	if o.trace {
		defs = layerMetrics
	}
	env := map[string]any{
		"workload":    *name,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"gogc":        envOr("GOGC", "100"),
		"go":          runtime.Version(),
		"commit":      *source,
		"steal_share": out.stealShare,
	}
	if out.wall != nil {
		env["wall"] = out.wall
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env %s\n", envJSON)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	if out.wall != nil {
		for _, d := range wallMetricDefs {
			fmt.Printf("%-36s %14.6g %s (wall clock, not gated)\n", "wall."+d.name, out.wall[d.name], d.unit)
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	if !out.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
