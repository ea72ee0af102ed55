package main

import (
	"fmt"
	"math"

	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/metrics"
)

// The checkers below compare the program's outputs with computations made
// here, or with properties the method must have. They are plain functions
// of recorded outputs so that checks_test.go can show each one rejecting
// a crafted broken input.

// verdictRec is the benchmark's record of one verdict, written by the
// service's reply callback.
type verdictRec struct {
	// n counts the verdicts delivered for the reading (exactly one is
	// correct); it is updated atomically by the reply callback.
	n                       int32
	index, epoch            int
	ready, flagged          bool
	score, value, mitigated float64
}

// checkFleetVerdicts checks the structure of a fleet's verdicts, recorded
// tick-major (ticks[g][s] is station s's verdict for its g-th reading):
// one verdict per reading, contiguous per-station indices from 0, exactly
// seqLen-1 warm-up verdicts per station, monotone epochs no later than
// finalEpoch, flags that agree with scores, mitigated values equal to the
// raw reading wherever it was not flagged, and the submitted reading
// echoed back. input(s, g) is the reading submitted. It returns, per
// tick, the stations whose verdict failed, and the first failure message.
func checkFleetVerdicts(ticks [][]verdictRec, input func(s, g int) float64, seqLen int, threshold float64, finalEpoch int) (bad [][]bool, first string) {
	note := func(g, s int, format string, args ...any) {
		if bad[g] == nil {
			bad[g] = make([]bool, len(ticks[g]))
		}
		bad[g][s] = true
		if first == "" {
			first = fmt.Sprintf("tick %d station %d: ", g, s) + fmt.Sprintf(format, args...)
		}
	}
	bad = make([][]bool, len(ticks))
	if len(ticks) == 0 {
		return bad, ""
	}
	stations := len(ticks[0])
	lastEpoch := make([]int, stations)
	warm := make([]int, stations)
	for g, tick := range ticks {
		if len(tick) != stations {
			for s := range tick {
				note(g, s, "tick holds %d stations, want %d", len(tick), stations)
			}
			continue
		}
		for s := range tick {
			v := &tick[s]
			switch {
			case v.n == 0:
				note(g, s, "no verdict")
				continue
			case v.n > 1:
				note(g, s, "%d verdicts for one reading", v.n)
			}
			if v.index != g {
				note(g, s, "index %d, want %d", v.index, g)
			}
			if v.ready != (g >= seqLen-1) {
				note(g, s, "ready=%v at reading %d with window %d", v.ready, g, seqLen)
			}
			if !v.ready {
				warm[s]++
			}
			if v.epoch < lastEpoch[s] || v.epoch > finalEpoch || v.epoch < 1 {
				note(g, s, "epoch %d after %d (final %d)", v.epoch, lastEpoch[s], finalEpoch)
			}
			lastEpoch[s] = v.epoch
			if v.flagged != (v.ready && v.score > threshold) {
				note(g, s, "flagged=%v with score %v, threshold %v", v.flagged, v.score, threshold)
			}
			if want := input(s, g); math.Float64bits(v.value) != math.Float64bits(want) {
				note(g, s, "value %v, submitted %v", v.value, want)
			}
			if !v.flagged && math.Float64bits(v.mitigated) != math.Float64bits(v.value) {
				note(g, s, "unflagged reading mitigated from %v to %v", v.value, v.mitigated)
			}
		}
	}
	if len(ticks) >= seqLen-1 {
		for s, w := range warm {
			if w != seqLen-1 {
				note(0, s, "%d warm-up verdicts, want %d", w, seqLen-1)
			}
		}
	}
	return bad, first
}

// fleetWindow fills w with the window the service scores for station
// reading g: the previous len(w)-1 mitigated values from the verdicts,
// then the raw reading.
func fleetWindow(w []float64, ticks [][]verdictRec, s, g int) {
	n := len(w)
	for k := 0; k < n-1; k++ {
		w[k] = ticks[g-n+1+k][s].mitigated
	}
	w[n-1] = ticks[g][s].value
}

// checkDetection recounts a client's confusion matrix from its labels and
// flags and compares the precision, recall and FPR the pipeline reported.
func checkDetection(labels, flags []bool, got metrics.Detection) error {
	if len(labels) != len(flags) {
		return fmt.Errorf("%d labels, %d flags", len(labels), len(flags))
	}
	var tp, fp, tn, fn int
	for i, l := range labels {
		switch {
		case l && flags[i]:
			tp++
		case l:
			fn++
		case flags[i]:
			fp++
		default:
			tn++
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return math.NaN() // undefined, as the metrics package reports it
		}
		return float64(a) / float64(b)
	}
	want := []struct {
		name      string
		got, want float64
	}{
		{"precision", got.Precision, ratio(tp, tp+fp)},
		{"recall", got.Recall, ratio(tp, tp+fn)},
		{"fpr", got.FPR, ratio(fp, fp+tn)},
	}
	for _, w := range want {
		if w.got != w.want && !(math.IsNaN(w.got) && math.IsNaN(w.want)) {
			return fmt.Errorf("%s %v, recounted %v (tp %d fp %d tn %d fn %d)", w.name, w.got, w.want, tp, fp, tn, fn)
		}
	}
	return nil
}

// checkFilter checks that the mitigation stage left every hour with no
// flagged hour within maxGap of it as it was (up to the scaler's round
// trip), and returns the summed |filtered-clean| and |attacked-clean|
// over the labelled attack hours. checkPass requires the first sum to be
// below the second over the clients pooled: a client whose detector
// flagged nothing legitimately leaves both equal.
func checkFilter(clean, attacked, filtered []float64, labels, flags []bool, maxGap int) (errFiltered, errAttacked float64, err error) {
	n := len(clean)
	if len(attacked) != n || len(filtered) != n || len(labels) != n || len(flags) != n {
		return 0, 0, fmt.Errorf("series lengths differ")
	}
	for i := 0; i < n; i++ {
		if labels[i] {
			errFiltered += math.Abs(filtered[i] - clean[i])
			errAttacked += math.Abs(attacked[i] - clean[i])
		}
		near := false
		for j := max(0, i-maxGap); j <= min(n-1, i+maxGap) && !near; j++ {
			near = flags[j]
		}
		if !near && math.Abs(filtered[i]-attacked[i]) > 1e-9*math.Max(1, math.Abs(attacked[i])) {
			return 0, 0, fmt.Errorf("hour %d: filtered %v, attacked %v, no flag within %d hours",
				i, filtered[i], attacked[i], maxGap)
		}
	}
	return errFiltered, errAttacked, nil
}

// checkRegression checks the properties every client's forecast metrics
// must have: a finite R² no greater than 1, and RMSE >= MAE.
func checkRegression(arm string, per []metrics.Regression) error {
	for i, r := range per {
		switch {
		case math.IsNaN(r.R2) || math.IsInf(r.R2, 0) || r.R2 > 1:
			return fmt.Errorf("%s client %d: R² %v", arm, i+1, r.R2)
		case !(r.RMSE >= r.MAE) || r.MAE < 0:
			return fmt.Errorf("%s client %d: RMSE %v below MAE %v", arm, i+1, r.RMSE, r.MAE)
		}
	}
	return nil
}

// checkRound checks one federated round of a tree with the given number
// of leaf stations: every leaf aggregated, none dropped.
func checkRound(st fed.RoundStat, leaves int) error {
	if st.LeafParticipants != leaves || st.LeafDropped != 0 || len(st.Dropped) != 0 {
		return fmt.Errorf("round %d: %d of %d leaves aggregated, %d dropped (%v)",
			st.Round, st.LeafParticipants, leaves, st.LeafDropped, st.Errors)
	}
	return nil
}

// checkTraffic checks that the bytes counted on the root's connections,
// and on the edges' connections to their stations, equal the rounds' byte
// figures (BytesDown+BytesUp and SubtreeBytesDown+SubtreeBytesUp) plus the
// preflight handshakes.
func checkTraffic(root, subtree uint64, rounds []fed.RoundStat, rootHello, subtreeHello uint64) error {
	var r, s uint64
	for _, st := range rounds {
		r += st.BytesDown + st.BytesUp
		s += st.SubtreeBytesDown + st.SubtreeBytesUp
	}
	if root != r+rootHello {
		return fmt.Errorf("root connections carried %d B, rounds account for %d B plus %d B of handshake",
			root, r, rootHello)
	}
	if subtree != s+subtreeHello {
		return fmt.Errorf("edge connections carried %d B, rounds account for %d B of subtree traffic plus %d B of handshake",
			subtree, s, subtreeHello)
	}
	return nil
}

// sameBits reports the first coordinate where two vectors differ in any
// bit, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
