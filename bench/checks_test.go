package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
)

// Each checker must accept a correct output and reject a crafted broken
// one. None of these tests measures speed.

const testSeqLen = 3

func testInput(s, g int) float64 { return float64(10*s + g) }

// goodFleet is a correct record of 2 stations over 6 readings: warm-up
// for the first testSeqLen-1, one flagged reading, a reload before the
// last tick.
func goodFleet() [][]verdictRec {
	ticks := make([][]verdictRec, 6)
	for g := range ticks {
		ticks[g] = make([]verdictRec, 2)
		for s := range ticks[g] {
			v := testInput(s, g)
			ticks[g][s] = verdictRec{n: 1, index: g, epoch: 1, ready: g >= testSeqLen-1, value: v, mitigated: v}
			if ticks[g][s].ready {
				ticks[g][s].score = 0.1
			}
		}
	}
	ticks[5][0].epoch, ticks[5][1].epoch = 2, 2
	ticks[3][1].score, ticks[3][1].flagged, ticks[3][1].mitigated = 0.9, true, 5
	return ticks
}

func TestCheckFleetVerdicts(t *testing.T) {
	const thr, final = 0.5, 2
	if bad, first := checkFleetVerdicts(goodFleet(), testInput, testSeqLen, thr, final); first != "" {
		t.Fatalf("correct fleet rejected: %s (%v)", first, bad)
	}
	cases := []struct {
		name   string
		g, s   int
		mutate func(v *verdictRec)
		want   string
	}{
		{"duplicate verdict", 4, 0, func(v *verdictRec) { v.n = 2 }, "2 verdicts"},
		{"missing verdict", 4, 1, func(v *verdictRec) { v.n = 0 }, "no verdict"},
		{"index gap", 3, 0, func(v *verdictRec) { v.index = 4 }, "index 4, want 3"},
		{"flag disagrees with score", 2, 0, func(v *verdictRec) { v.flagged, v.mitigated = true, 7 }, "flagged=true"},
		{"unflagged score over threshold", 2, 1, func(v *verdictRec) { v.score = 0.7 }, "flagged=false"},
		{"epoch goes back", 5, 1, func(v *verdictRec) { v.epoch = 0 }, "epoch 0"},
		{"epoch beyond the final", 4, 1, func(v *verdictRec) { v.epoch = 3 }, "epoch 3"},
		{"early ready", 1, 0, func(v *verdictRec) { v.ready = true }, "ready=true"},
		{"unflagged reading mitigated", 4, 0, func(v *verdictRec) { v.mitigated++ }, "mitigated"},
		{"wrong reading echoed", 5, 0, func(v *verdictRec) { v.value++; v.mitigated++ }, "submitted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ticks := goodFleet()
			c.mutate(&ticks[c.g][c.s])
			bad, first := checkFleetVerdicts(ticks, testInput, testSeqLen, thr, final)
			if !strings.Contains(first, c.want) {
				t.Fatalf("first failure %q, want it to mention %q", first, c.want)
			}
			if bad[c.g] == nil || !bad[c.g][c.s] {
				t.Fatalf("reading %d of station %d not marked failed", c.g, c.s)
			}
		})
	}
	t.Run("missing warm-up verdict", func(t *testing.T) {
		ticks := goodFleet()
		ticks[0][1].ready, ticks[0][1].score = true, 0.1
		if _, first := checkFleetVerdicts(ticks, testInput, testSeqLen, thr, final); !strings.Contains(first, "ready") {
			t.Fatalf("first failure %q", first)
		}
	})
}

func TestFleetWindow(t *testing.T) {
	ticks := goodFleet()
	w := make([]float64, testSeqLen)
	fleetWindow(w, ticks, 1, 4)
	// Readings 2 and 3 of station 1, reading 3 mitigated to 5, then the
	// raw reading 4.
	want := []float64{testInput(1, 2), 5, testInput(1, 4)}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("window %v, want %v", w, want)
		}
	}
}

func TestCheckDetection(t *testing.T) {
	labels := []bool{true, true, false, false, false, true}
	flags := []bool{true, false, false, true, false, true}
	conf, err := metrics.EvalDetection(labels, flags)
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.Summarize(conf)
	if err := checkDetection(labels, flags, d); err != nil {
		t.Fatalf("correct detection rejected: %v", err)
	}
	flipped := append([]bool(nil), labels...)
	flipped[1] = !flipped[1]
	if err := checkDetection(flipped, flags, d); err == nil {
		t.Fatal("a flipped label was not noticed")
	}
	none := make([]bool, len(labels))
	conf, _ = metrics.EvalDetection(labels, none)
	if err := checkDetection(labels, none, metrics.Summarize(conf)); err != nil {
		t.Fatalf("undefined precision rejected: %v", err)
	}
}

func TestCheckFilter(t *testing.T) {
	clean := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	attacked := []float64{1, 1, 5, 6, 1, 1, 1, 1}
	labels := []bool{false, false, true, true, false, false, false, false}
	flags := labels
	filtered := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	ef, ea, err := checkFilter(clean, attacked, filtered, labels, flags, 2)
	if err != nil || ef != 0 || ea != 9 {
		t.Fatalf("correct filter: errors %v/%v, %v", ef, ea, err)
	}
	far := append([]float64(nil), filtered...)
	far[7] = 2 // no flag within two hours of hour 7
	if _, _, err := checkFilter(clean, attacked, far, labels, flags, 2); err == nil {
		t.Fatal("a change far from any flag was not noticed")
	}
}

func TestCheckRegression(t *testing.T) {
	good := []metrics.Regression{{MAE: 1, RMSE: 1.5, R2: 0.8}}
	if err := checkRegression("arm", good); err != nil {
		t.Fatalf("correct metrics rejected: %v", err)
	}
	for _, bad := range []metrics.Regression{
		{MAE: 1, RMSE: 1.5, R2: 1.2},
		{MAE: 1, RMSE: 1.5, R2: math.NaN()},
		{MAE: 2, RMSE: 1.5, R2: 0.5},
	} {
		if err := checkRegression("arm", []metrics.Regression{bad}); err == nil {
			t.Fatalf("broken metrics %+v accepted", bad)
		}
	}
}

func TestCheckRoundAndTraffic(t *testing.T) {
	rounds := []fed.RoundStat{
		{Round: 0, LeafParticipants: 4, BytesDown: 100, BytesUp: 200, SubtreeBytesDown: 400, SubtreeBytesUp: 800},
		{Round: 1, LeafParticipants: 4, BytesDown: 50, BytesUp: 200, SubtreeBytesDown: 200, SubtreeBytesUp: 800},
	}
	for _, st := range rounds {
		if err := checkRound(st, 4); err != nil {
			t.Fatalf("complete round rejected: %v", err)
		}
	}
	if err := checkRound(fed.RoundStat{LeafParticipants: 3, LeafDropped: 1}, 4); err == nil {
		t.Fatal("a dropped leaf was not noticed")
	}
	if err := checkTraffic(550+20, 2200+80, rounds, 20, 80); err != nil {
		t.Fatalf("matching traffic rejected: %v", err)
	}
	if err := checkTraffic(550+21, 2200+80, rounds, 20, 80); err == nil {
		t.Fatal("a one-byte root traffic mismatch was not noticed")
	}
	if err := checkTraffic(550+20, 2200+79, rounds, 20, 80); err == nil {
		t.Fatal("a one-byte subtree traffic mismatch was not noticed")
	}
}

func TestTracerSummary(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.base.Add(time.Duration(ns)) }
	op := tr.recordOp("op.tick", at(0), at(100))
	sub := tr.record("serve.Submit", op, at(0), at(40))
	tr.record("autoencoder.Score", sub, at(10), at(30))
	tr.record("serve.await", op, at(50), at(90))
	layers, coverage := tr.summary()
	if got := layers["serve"]; got.Count != 2 || got.Self != 60 {
		t.Fatalf("serve %+v, want 2 spans and 60ns self", got)
	}
	if got := layers["autoencoder"]; got.Count != 1 || got.Self != 20 {
		t.Fatalf("autoencoder %+v, want 1 span and 20ns self", got)
	}
	if coverage != 80 {
		t.Fatalf("coverage %v%%, want 80%%", coverage)
	}
	tr.setOn(false)
	if id := tr.begin("serve.Submit", -1); id != -1 || len(tr.spans) != 4 {
		t.Fatal("a tracer switched off recorded a span")
	}
	var untraced *tracer
	untraced.end(untraced.begin("serve.Submit", untraced.beginOp("op.tick")))
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := median(xs); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Fatalf("p90 %v", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric tables of this package and
// BENCHMARK.json at the repository root in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, specs []metricSpec, listed []struct{ Name, Unit, Better string }) {
		if len(specs) != len(listed) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(specs), len(listed))
		}
		for i, s := range specs {
			l := listed[i]
			if s.Name != l.Name || s.Unit != l.Unit || s.Better != l.Better {
				t.Fatalf("%s %d: %+v here, %+v in BENCHMARK.json", kind, i, s, l)
			}
			if s.Workload != "" && workloads[s.Workload] == nil {
				t.Fatalf("%s: unknown workload %q", s.Name, s.Workload)
			}
		}
	}
	compare("end_to_end", endToEnd, bm.EndToEnd)
	compare("per_layer", perLayer, bm.PerLayer)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("workload %q of BENCHMARK.json is not implemented", w.Name)
		}
	}
}

func TestCheckPassRejectsWrongDetection(t *testing.T) {
	n := 40
	c := &eval.ClientPrep{
		Clean: make([]float64, n), Attacked: make([]float64, n), Filtered: make([]float64, n),
		Labels: make([]bool, n), Flags: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.Clean[i], c.Attacked[i], c.Filtered[i] = 1, 1, 1
	}
	for i := 10; i < 14; i++ {
		c.Labels[i], c.Flags[i], c.Attacked[i] = true, true, 3
	}
	conf, _ := metrics.EvalDetection(c.Labels, c.Flags)
	c.Detection = metrics.Summarize(conf)
	arm := &eval.ScenarioResult{PerClient: []metrics.Regression{{MAE: 1, RMSE: 2, R2: 0.5}}}
	rep := &eval.Report{FedClean: arm, FedAttacked: arm, FedFiltered: arm, CentralFiltered: arm}
	p := eval.QuickParams(1)
	if msg := checkPass(p, []*eval.ClientPrep{c}, rep); msg != "" {
		t.Fatalf("correct pass rejected: %s", msg)
	}
	c.Detection.Recall = 0.5
	if msg := checkPass(p, []*eval.ClientPrep{c}, rep); !strings.Contains(msg, "recall") {
		t.Fatalf("a wrong recall was not noticed: %q", msg)
	}
	c.Detection = metrics.Summarize(conf)
	for i := 10; i < 14; i++ {
		c.Filtered[i] = 5 // mitigation that moved attack hours away from the clean series
	}
	if msg := checkPass(p, []*eval.ClientPrep{c}, rep); !strings.Contains(msg, "no closer") {
		t.Fatalf("a filter that made attack hours worse was not noticed: %q", msg)
	}
}

func TestFailedOperationsMarkTheRunIncorrect(t *testing.T) {
	out := newOutcome()
	out.attempted = 10
	for _, s := range endToEnd {
		out.metrics[s.Name] = 1
	}
	res, err := buildResult(options{workload: "fed_tiers"}, out)
	if err != nil || !res.Correct {
		t.Fatalf("clean run: %+v, %v", res, err)
	}
	out.failed++
	out.fail("round 3: 31 of 32 leaves aggregated")
	if res, _ = buildResult(options{workload: "fed_tiers"}, out); res.Correct || res.Failed != 1 {
		t.Fatalf("a failed check left the run correct: %+v", res)
	}
	delete(out.metrics, "op_p50_ms")
	if _, err := buildResult(options{workload: "fed_tiers"}, out); err == nil {
		t.Fatal("a missing metric was not reported")
	}
}
