// Command bench is the repository benchmark. It drives one workload of
// the evfed system through the public functions and types of its
// packages, checks the outputs against independent computations and
// method properties, and prints every metric by name and unit:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is the JSON result with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured with spans around the calls this package makes into each layer
// and with fixed-shape layer probes. README.md maps every layer metric to
// the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestSpecsMatchBenchmarkJSON keeps them in
// step).
type metricSpec struct {
	Name, Unit, Better string
	// Workload names the only workload that observes the metric; on the
	// others the layer is never called and the metric reads 0. Empty means
	// every traced run measures it (the fixed-shape layer probes and the
	// trace's own figures).
	Workload string
}

// endToEnd are the user-visible metrics every untraced run reports. Each
// workload has one unit operation: a forecasting pass for paper_quick, a
// fleet tick for fleet_serve and a root round for fed_tiers.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "items_per_s", Unit: "1/s", Better: "higher"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricSpec{
	// paper_quick: preparation layers (move setup_s).
	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower", Workload: "paper_quick"},
	{Name: "attack.inject_ms", Unit: "ms", Better: "lower", Workload: "paper_quick"},
	{Name: "autoencoder.train_s", Unit: "s", Better: "lower", Workload: "paper_quick"},
	{Name: "autoencoder.train_windows_per_s", Unit: "1/s", Better: "higher", Workload: "paper_quick"},
	{Name: "anomaly.calibrate_ms", Unit: "ms", Better: "lower", Workload: "paper_quick"},
	{Name: "anomaly.apply_ms", Unit: "ms", Better: "lower", Workload: "paper_quick"},
	// paper_quick: forecasting arms (move op_p50_ms).
	{Name: "eval.fed_clean_s", Unit: "s", Better: "lower", Workload: "paper_quick"},
	{Name: "eval.fed_attacked_s", Unit: "s", Better: "lower", Workload: "paper_quick"},
	{Name: "eval.fed_filtered_s", Unit: "s", Better: "lower", Workload: "paper_quick"},
	{Name: "central.train_s", Unit: "s", Better: "lower", Workload: "paper_quick"},
	{Name: "fed.inproc_round_ms", Unit: "ms", Better: "lower", Workload: "paper_quick"},
	// fleet_serve: scoring service.
	{Name: "serve.wave_windows", Unit: "count", Better: "higher", Workload: "fleet_serve"},
	{Name: "serve.single_windows", Unit: "count", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.submit_ns", Unit: "ns", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.tick_wait_ms", Unit: "ms", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.verdict_p50_us", Unit: "us", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.verdict_p99_us", Unit: "us", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.steal_offered", Unit: "count", Better: "lower", Workload: "fleet_serve"},
	{Name: "serve.steal_stolen", Unit: "count", Better: "higher", Workload: "fleet_serve"},
	{Name: "serve.reload_ms", Unit: "ms", Better: "lower", Workload: "fleet_serve"},
	// fed_tiers: wire traffic per timed round.
	{Name: "fed.root_bytes_down", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	{Name: "fed.root_bytes_up", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	{Name: "fed.subtree_bytes_down", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	{Name: "fed.subtree_bytes_up", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	{Name: "fed.root_bytes_per_round", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	{Name: "fed.tree_bytes_per_round", Unit: "B", Better: "lower", Workload: "fed_tiers"},
	// Spans: per-layer call counts and self time over the traced run; a
	// layer the workload never calls reads 0.
	{Name: "dataset.span_count", Unit: "count", Better: "lower"},
	{Name: "dataset.self_ms", Unit: "ms", Better: "lower"},
	{Name: "attack.span_count", Unit: "count", Better: "lower"},
	{Name: "attack.self_ms", Unit: "ms", Better: "lower"},
	{Name: "autoencoder.span_count", Unit: "count", Better: "lower"},
	{Name: "autoencoder.self_ms", Unit: "ms", Better: "lower"},
	{Name: "anomaly.span_count", Unit: "count", Better: "lower"},
	{Name: "anomaly.self_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.span_count", Unit: "count", Better: "lower"},
	{Name: "eval.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.span_count", Unit: "count", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.span_count", Unit: "count", Better: "lower"},
	{Name: "fed.self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// Fixed-shape layer probes, run by every traced run.
	{Name: "mat.multbias_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "mat.mulatadd_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "nn.ae_step_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.forecaster_step_ms", Unit: "ms", Better: "lower"},
	{Name: "autoencoder.score_window_us", Unit: "us", Better: "lower"},
	{Name: "fed.local_train_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.q8_encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.q8_decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.partial_encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.partial_decode_us", Unit: "us", Better: "lower"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// dir is this run's private scratch directory (checkpoints, probe
	// files) under .bench_build; it is removed when the run ends.
	dir string
}

// outcome is what a workload hands back: operation counts, check
// failures and metric values by name.
type outcome struct {
	attempted, failed int64
	failures          []string
	metrics           map[string]float64
	// figures are workload-specific readings printed in the report above
	// the JSON line (for example the fleet's verdicts per second).
	figures map[string]float64
	// layers is the traced phase's per-layer span summary (traced runs).
	layers map[string]*layerStat
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, figures: map[string]float64{}}
}

// fail records a failed output check. Only the first few messages are
// kept; the count of failed operations is kept separately.
func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(o options, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper_quick": runPaperQuick,
	"fleet_serve": runFleetServe,
	"fed_tiers":   runFedTiers,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: paper_quick, fleet_serve or fed_tiers")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: scratch directory: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, "run-"+o.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	printHost(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := fn(o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	}
	res, err := buildResult(o, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printReport(o, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
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

// buildResult selects the metrics of the run's kind and checks that the
// workload measured every metric it owns.
func buildResult(o options, out *outcome) (*result, error) {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := &result{
		Correct:   len(out.failures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		owned := !o.trace || s.Workload == "" || s.Workload == o.workload
		switch {
		case owned && !ok:
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		case !owned && ok && v != 0:
			return nil, fmt.Errorf("metric %s belongs to %s but reads %v here", s.Name, s.Workload, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// printReport writes the human-readable part of the output: the
// workload's own figures, the span table of a traced run and any failed
// checks.
func printReport(o options, out *outcome) {
	keys := make([]string, 0, len(out.figures))
	for k := range out.figures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("figure %-28s %.6g\n", k, out.figures[k])
	}
	if o.trace && out.layers != nil {
		printLayers(out.layers)
	}
	for _, f := range out.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	fmt.Printf("operations: attempted %d, failed %d\n", out.attempted, out.failed)
}
