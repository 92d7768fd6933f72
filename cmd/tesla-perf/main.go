// Command tesla-perf is the repository's benchmark: one seeded command that
// builds, runs and checks four workloads end to end, and with -trace 1
// runs a separate traced pass that prices each layer of the pipeline.
//
// Run it from the repository root through its wrapper, which builds it
// from source first:
//
//	bash cmd/tesla-perf/run.sh -seed 1                       # all four workloads
//	bash cmd/tesla-perf/run.sh --workload fleet --seed 3 --seconds 10 --trace 0
//	bash cmd/tesla-perf/run.sh --workload rebuild --trace 1  # per-layer ledger
//	bash cmd/tesla-perf/run.sh -compare old.jsonl new.jsonl  # judge two record sets
//
// Each workload run prints its metrics by name and unit, then, as the last
// line of standard output, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs report the end-to-end metrics,
// traced runs the per-layer metrics; BENCHMARK.json at the repository root
// lists both. -o appends a richer JSON record per run for -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them, and BENCHMARK.json gives each its regression bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"alloc_b_per_op", "B", "lower"},
}

// ungatedMetrics are end-to-end metrics that are printed and recorded, so
// -compare lists them with their spread, but have no bound: the op
// latency tail, whose spread over ten seeds of one commit reached 17-28%
// on three of the four workloads, and the fleet-only detection and query
// latencies (BENCHMARK.json's metrics must come from every workload).
var ungatedMetrics = []metricDef{
	{"op_p99_us", "us", "lower"},
	{"detect_p50_ms", "ms", "lower"},
	{"detect_p95_ms", "ms", "lower"},
	{"query_p50_us", "us", "lower"},
}

// perLayerMetrics come from the traced run, named after the module that
// does the work. A workload that bypasses a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	{"build.cold_ms", "ms", "lower"},
	{"build.graph_overhead_ms", "ms", "lower"},
	{"build.noop_ms", "ms", "lower"},
	{"build.body_edit_ms", "ms", "lower"},
	{"build.assert_edit_ms", "ms", "lower"},
	{"build.nodes_built_per_op", "count", "lower"},
	{"build.cache_hit_ratio", "ratio", "higher"},
	{"csub.parse_ms", "ms", "lower"},
	{"compiler.compile_ms", "ms", "lower"},
	{"manifest.combine_ms", "ms", "lower"},
	{"automata.compile_ms", "ms", "lower"},
	{"instrument.module_ms", "ms", "lower"},
	{"ir.optimize_ms", "ms", "lower"},
	{"ir.link_ms", "ms", "lower"},
	{"vm.plain_us_per_op", "us", "lower"},
	{"vm.steps_per_op", "count", "lower"},
	{"kernel.release_us_per_tx", "us", "lower"},
	{"monitor.events_per_op", "count", "lower"},
	{"monitor.us_per_op", "us", "lower"},
	{"monitor.ns_per_event", "ns", "lower"},
	{"monitor.overhead_x", "ratio", "lower"},
	{"core.live_instances", "count", "lower"},
	{"core.violations", "count", "lower"},
	{"core.overflows", "count", "lower"},
	{"core.evictions", "count", "lower"},
	{"trace.recorder_us_per_op", "us", "lower"},
	{"trace.cut_us_p50", "us", "lower"},
	{"trace.cut_us_p99", "us", "lower"},
	{"trace.events_per_cut", "count", "lower"},
	{"trace.encode_ns_per_event", "ns", "lower"},
	{"trace.ring_dropped", "count", "lower"},
	{"agg.send_us_p50", "us", "lower"},
	{"agg.send_us_p99", "us", "lower"},
	{"agg.apply_ns_per_event", "ns", "lower"},
	{"agg.wire_lag_ms_p50", "ms", "lower"},
	{"agg.wire_lag_ms_p99", "ms", "lower"},
	{"agg.query_us_p99", "us", "lower"},
	{"agg.fleet_query_us_p50", "us", "lower"},
	{"agg.snapshot_ms", "ms", "lower"},
	{"agg.snapshot_bytes", "B", "lower"},
	{"agg.dropped_events", "count", "lower"},
	{"agg.dup_frames", "count", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
}

// workload is one seeded input set. run measures it untraced; trace runs
// the traced pass that fills the per-layer metrics.
type workload struct {
	name, why string
	run       func(c *config) (*outcome, error)
	trace     func(c *config) (*outcome, error)
}

var workloads = []*workload{
	{
		name:  "kernel-oltp",
		why:   "the paper's Fig. 11b macro: the synchronous monitor plane and per-thread store do all TESLA work; build, vm, global store, trace and agg are absent",
		run:   runKernelOLTP,
		trace: traceKernelOLTP,
	},
	{
		name:  "global-ingest",
		why:   "pre-matched keyed events into one TESLA_GLOBAL class: the striped global store and compiled engines are almost the whole cost",
		run:   runGlobalIngest,
		trace: traceGlobalIngest,
	},
	{
		name:  "fleet",
		why:   "one program event followed to a fleet query: vm, batched monitor, recorder, WAL, agg wire, store and snapshots all carry load",
		run:   runFleet,
		trace: traceFleet,
	},
	{
		name:  "rebuild",
		why:   "incremental rebuilds of a seeded 26-file codebase on one artifact cache: build graph, csub, compiler and instrument stages are the whole cost",
		run:   runRebuild,
		trace: traceRebuild,
	},
}

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds float64
	workdir string   // scratch directory, removed after the run
	spans   *spanLog // nil when untraced
	log     io.Writer
}

// check is one correctness check a run made.
type check struct {
	name, detail string
	ok           bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]float64 // end-to-end metrics, gated and ungated
	layers            map[string]float64 // per-layer metrics, traced runs only
	ledger            func(w io.Writer)  // self-time ledger, traced runs only
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0 && len(o.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -o stores it for -compare.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Trace    bool                   `json:"trace"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tesla-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload run")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default <workdir>/spans-<workload>.json)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "tesla-perf-work"), "scratch directory")
	recordPath := fs.String("o", "", "append one JSON record per run to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two record files by the bounds in ./BENCHMARK.json: -compare old.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "tesla-perf: -compare needs two record files")
			return 2
		}
		return compareRecords(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "tesla-perf: unknown workload %q (want all, %s)\n", *name, workloadNames())
		return 2
	}

	code := 0
	for _, w := range selected {
		c := &config{seed: *seed, seconds: *seconds, log: stdout}
		res, rec, err := runWorkload(w, c, *traced == 1, *workdir, *spansPath)
		if err != nil {
			fmt.Fprintf(stderr, "tesla-perf: %s: %v\n", w.name, err)
			return 2
		}
		if *recordPath != "" {
			if err := appendRecord(*recordPath, rec); err != nil {
				fmt.Fprintf(stderr, "tesla-perf: %v\n", err)
				return 2
			}
		}
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload untraced, or, when traced, an untraced
// pass and a traced pass of half the time each so the two sets of
// end-to-end numbers can be printed side by side (their difference is the
// tracing overhead).
func runWorkload(w *workload, c *config, traced bool, workdir, spansPath string) (*result, *record, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	c.workdir = dir

	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(c.log, "== %s (seed %d, %gs, %s)\n   why: %s\n", w.name, c.seed, c.seconds, mode, w.why)

	if !traced {
		o, err := w.run(c)
		if err != nil {
			return nil, nil, err
		}
		printOutcome(c.log, o, endToEndMetrics, ungatedMetrics)
		res := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: values(endToEndMetrics, o.metrics)}
		all := append(append([]metricDef(nil), endToEndMetrics...), ungatedMetrics...)
		return res, &record{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Correct: res.Correct, Metrics: values(all, o.metrics)}, nil
	}

	half := *c
	half.seconds = c.seconds / 2
	plain, err := w.run(&half)
	if err != nil {
		return nil, nil, err
	}
	tc := half
	tc.spans = newSpanLog()
	tc.workdir = filepath.Join(dir, "traced")
	if err := os.MkdirAll(tc.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	o, err := w.trace(&tc)
	if err != nil {
		return nil, nil, err
	}
	for _, ch := range plain.checks {
		o.checks = append(o.checks, check{name: "untraced " + ch.name, ok: ch.ok, detail: ch.detail})
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	for _, d := range perLayerMetrics {
		if _, ok := o.layers[d.name]; !ok {
			o.layers[d.name] = 0 // the workload bypasses this layer
		}
	}

	printOverhead(c.log, plain.metrics, o.metrics)
	printOutcome(c.log, &outcome{checks: o.checks, attempted: o.attempted, failed: o.failed, metrics: o.layers}, perLayerMetrics)
	if o.ledger != nil {
		o.ledger(c.log)
	}
	if spansPath == "" {
		spansPath = filepath.Join(workdir, "spans-"+w.name+".json")
	}
	if err := tc.spans.write(spansPath, w.name, c.seed); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(c.log, "  spans written to %s\n", spansPath)
	res := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: values(perLayerMetrics, o.layers)}
	return res, &record{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: true, Correct: res.Correct, Metrics: res.Metrics}, nil
}

func printOutcome(w io.Writer, o *outcome, defs ...[]metricDef) {
	for _, group := range defs {
		for _, d := range group {
			if v, ok := o.metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-26s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-26s %16.6g ratio (%d failed of %d attempted)\n", "failed_frac", frac, o.failed, o.attempted)
	for _, ch := range o.checks {
		status := "ok"
		if !ch.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-6s %s: %s\n", status, ch.name, ch.detail)
	}
}

// printOverhead puts the untraced and traced end-to-end numbers side by
// side; their difference is what tracing costs.
func printOverhead(w io.Writer, plain, traced map[string]float64) {
	fmt.Fprintf(w, "  %-26s %14s %14s %9s\n", "end-to-end", "untraced", "traced", "traced/un")
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), ungatedMetrics...) {
		p, ok1 := plain[d.name]
		t, ok2 := traced[d.name]
		if !ok1 || !ok2 {
			continue
		}
		ratio := math.NaN()
		if p != 0 {
			ratio = t / p
		}
		fmt.Fprintf(w, "  %-26s %14.6g %14.6g %8.3fx  %s\n", d.name, p, t, ratio, d.unit)
	}
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
