package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from this package into a layer of the program.
// Spans named "op.*" are the workload's own operations (a forecasting
// pass, a fleet tick, a round); every other span's layer is its name up
// to the first dot.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // operation id shared by the spans of one operation
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// load-generating goroutine only. A nil tracer (an untraced run) or one
// switched off records nothing.
type tracer struct {
	base  time.Time
	on    bool
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), on: true} }

func (t *tracer) active() bool { return t != nil && t.on }

// setOn switches recording on or off; a traced run uses it to leave
// every other operation untraced (tracedOp).
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on = on
	}
}

// beginOp starts a new operation and its root span.
func (t *tracer) beginOp(name string) int {
	if !t.active() {
		return -1
	}
	t.op++
	return t.begin(name, -1)
}

// begin opens a span under parent and returns its index (-1 when not
// recording).
func (t *tracer) begin(name string, parent int) int {
	if !t.active() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.base)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// record adds a finished span whose ends were stamped elsewhere (a
// round's bounds, taken from the coordinator's OnRound hook).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if !t.active() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return len(t.spans) - 1
}

// recordOp adds a finished operation span stamped elsewhere.
func (t *tracer) recordOp(name string, start, end time.Time) int {
	if !t.active() {
		return -1
	}
	t.op++
	return t.record(name, -1, start, end)
}

// durations returns the durations of every finished span with the name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianMs is the median duration of the named spans in milliseconds.
func (t *tracer) medianMs(name string) float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// layerStat is one layer's share of a traced run.
type layerStat struct {
	Count int
	// Self is the layer's span time minus the time of its child spans.
	Self time.Duration
}

// tracedLayers are the layers this package wraps spans around; their
// counts and self times are reported by every traced run, as 0 where the
// workload never calls the layer.
var tracedLayers = []string{"dataset", "attack", "autoencoder", "anomaly", "eval", "serve", "fed"}

// summary folds the spans into per-layer counts and self times, and the
// share of the operations' wall time that layer spans cover.
func (t *tracer) summary() (map[string]*layerStat, float64) {
	layers := map[string]*layerStat{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var opWall, covered time.Duration
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if strings.HasPrefix(s.Name, "op.") {
			opWall += d
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		st := layers[layer]
		if st == nil {
			st = &layerStat{}
			layers[layer] = st
		}
		st.Count++
		st.Self += d - child[i]
		if s.Parent >= 0 && strings.HasPrefix(t.spans[s.Parent].Name, "op.") {
			covered += d
		}
	}
	coverage := 0.0
	if opWall > 0 {
		coverage = 100 * float64(covered) / float64(opWall)
	}
	return layers, coverage
}

// tracedOp reports whether a traced run traces its i-th timed operation:
// it traces every other one, so that the untraced ones between them time
// the overhead under the same drift of the host.
func tracedOp(i int) bool { return i%2 == 1 }

// overheadPct is the tracing overhead of a traced run whose walls were
// taken alternately untraced and traced (tracedOp).
func overheadPct(walls []float64) float64 {
	var traced, untraced []float64
	for i, w := range walls {
		if tracedOp(i) {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	return 100 * (median(traced)/median(untraced) - 1)
}

// addSpanMetrics sets the span-derived per-layer metrics of a traced run.
func addSpanMetrics(out *outcome, tr *tracer) {
	layers, coverage := tr.summary()
	out.layers = layers
	for _, l := range tracedLayers {
		st := layers[l]
		if st == nil {
			st = &layerStat{}
		}
		out.metrics[l+".span_count"] = float64(st.Count)
		out.metrics[l+".self_ms"] = ms(st.Self)
	}
	out.metrics["trace.coverage_pct"] = coverage
}

func printLayers(layers map[string]*layerStat) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %10s %12s\n", "layer", "spans", "self_ms")
	for _, n := range names {
		fmt.Printf("%-12s %10d %12.3f\n", n, layers[n].Count, ms(layers[n].Self))
	}
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
