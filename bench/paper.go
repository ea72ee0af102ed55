package main

import (
	"fmt"
	"math"
	"time"

	"github.com/evfed/evfed/internal/anomaly"
	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/eval"
	"github.com/evfed/evfed/internal/metrics"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

// paper_quick: the eval.QuickParams pipeline, in process and without a
// codec. One pass prepares the three study zones (generate, inject DDoS,
// train and calibrate the detectors, filter) and then trains the
// federated clean, attacked and filtered arms and the centralized
// filtered arm. Preparation is the set-up; the forecasting arms are the
// timed operation.
const (
	// paperMinPasses is the least number of passes a run makes.
	paperMinPasses = 3
	// Detection floors of the quick detector over the three clients
	// pooled, and the false-positive ceiling of each client (README.md).
	paperPrecisionFloor   = 0.5
	paperRecallFloor      = 0.15
	paperFPRCeiling       = 0.05
	paperClientFPRCeiling = 0.1
)

func runPaperQuick(o options, tr *tracer) (*outcome, error) {
	p := eval.QuickParams(o.seed)
	out := newOutcome()
	var setups, passes []float64
	var ref []*eval.ClientPrep
	var refRep *eval.Report
	var fedRounds, centralTrain []float64
	var aeWindows int
	start := time.Now()
	deadline := start.Add(o.seconds)
	for n := 0; n < paperMinPasses || time.Now().Before(deadline); n++ {
		// A traced run composes every other pass from the layer calls; the
		// first, untraced pass gives the outputs every later pass must equal.
		tr.setOn(tracedOp(n))
		out.attempted++
		var clients []*eval.ClientPrep
		var rep *eval.Report
		var err error
		root := tr.beginOp("op.pass")
		t0 := time.Now()
		if tr.active() {
			var w int
			clients, w, err = composePrepare(p, tr, root)
			aeWindows += w
		} else {
			clients, err = eval.Prepare(p)
		}
		t1 := time.Now()
		if err == nil {
			if tr.active() {
				rep, err = composeScenarios(p, clients, tr, root)
			} else {
				rep, err = eval.RunScenarios(p, clients)
			}
		}
		t2 := time.Now()
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n+1, err)
		}
		setups = append(setups, secs(t1.Sub(t0)))
		passes = append(passes, ms(t2.Sub(t1)))

		failed := checkPass(p, clients, rep)
		if ref == nil {
			ref, refRep = clients, rep
		} else if err == nil && failed == "" {
			failed = samePass(ref, refRep, clients, rep)
		}
		if failed != "" {
			out.failed++
			out.fail("pass %d: %s", n+1, failed)
		}
		if tr.active() {
			for _, arm := range []*eval.ScenarioResult{rep.FedClean, rep.FedAttacked, rep.FedFiltered} {
				for _, st := range arm.Rounds {
					fedRounds = append(fedRounds, 1000*st.WallSeconds)
				}
			}
			centralTrain = append(centralTrain, rep.CentralFiltered.TrainSeconds)
		}
	}

	tr.setOn(true)
	out.figures["passes"] = float64(len(passes))
	minPrec, minRecall, maxFPR := 1.0, 1.0, 0.0
	for _, c := range ref {
		minPrec = math.Min(minPrec, c.Detection.Precision)
		minRecall = math.Min(minRecall, c.Detection.Recall)
		maxFPR = math.Max(maxFPR, c.Detection.FPR)
	}
	out.figures["detection_min_precision"] = minPrec
	out.figures["detection_min_recall"] = minRecall
	out.figures["detection_max_fpr"] = maxFPR
	out.figures["forecast_s"] = median(passes) / 1000
	if tr == nil {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = median(passes)
		out.metrics["op_p90_ms"] = tailQuantile(passes)
		out.metrics["items_per_s"] = float64(forecastWindows(p, ref)) * float64(len(passes)) / (sum(passes) / 1000)
		return out, nil
	}

	addSpanMetrics(out, tr)
	out.metrics["trace.overhead_pct"] = overheadPct(passes)
	out.metrics["dataset.generate_ms"] = tr.medianMs("dataset.Generate")
	out.metrics["attack.inject_ms"] = tr.medianMs("attack.InjectDDoS")
	out.metrics["autoencoder.train_s"] = tr.medianMs("autoencoder.Train") / 1000
	out.metrics["anomaly.calibrate_ms"] = tr.medianMs("anomaly.Calibrate")
	out.metrics["anomaly.apply_ms"] = tr.medianMs("anomaly.Apply")
	var trainTime time.Duration
	for _, d := range tr.durations("autoencoder.Train") {
		trainTime += d
	}
	out.metrics["autoencoder.train_windows_per_s"] = float64(aeWindows) / trainTime.Seconds()
	out.metrics["eval.fed_clean_s"] = tr.medianMs("eval.RunFederated:clean") / 1000
	out.metrics["eval.fed_attacked_s"] = tr.medianMs("eval.RunFederated:attacked") / 1000
	out.metrics["eval.fed_filtered_s"] = tr.medianMs("eval.RunFederated:filtered") / 1000
	out.metrics["central.train_s"] = median(centralTrain)
	out.metrics["fed.inproc_round_ms"] = median(fedRounds)
	return out, runProbes(o, out, 0)
}

// forecastWindows is the number of training windows the four forecasting
// arms process in one pass: each federated arm trains every client's
// windows for Rounds·EpochsPerRound epochs, and so does the centralized
// arm over the pooled windows.
func forecastWindows(p eval.Params, clients []*eval.ClientPrep) int {
	var w int
	for _, c := range clients {
		train := int(float64(len(c.Clean)) * p.TrainFrac)
		w += train - p.SeqLen
	}
	return 4 * w * p.Rounds * p.EpochsPerRound
}

// composePrepare is eval.Prepare composed from the same public calls,
// with a span around each layer call. samePass checks that its outputs
// equal eval.Prepare's bit for bit, so the trace measures the same
// program. It also returns the number of windows the detectors trained
// on, epochs included.
func composePrepare(p eval.Params, tr *tracer, root int) ([]*eval.ClientPrep, int, error) {
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}
	out := make([]*eval.ClientPrep, 0, len(profiles))
	var windows int
	for ci, prof := range profiles {
		sp := tr.begin("dataset.Generate", root)
		gen, err := dataset.Generate(dataset.Config{Profile: prof, Hours: p.Hours, Seed: p.Seed})
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		clean := gen.Series.Values
		sp = tr.begin("attack.InjectDDoS", root)
		atkRNG := rng.New(p.Seed ^ (uint64(ci+1) * 0xa77ac4))
		eps, err := attack.Schedule(p.Schedule, len(clean), 0, atkRNG)
		var injected *attack.Result
		if err == nil {
			injected, err = attack.InjectDDoS(clean, eps, p.Traffic, atkRNG)
		}
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		cleanTrain, _, err := series.SplitValues(clean, p.TrainFrac)
		if err != nil {
			return nil, 0, err
		}
		var sc scale.MinMaxScaler
		scaledTrain, err := sc.FitTransform(cleanTrain)
		if err != nil {
			return nil, 0, err
		}
		aeCfg := p.AE
		aeCfg.SeqLen = p.SeqLen
		aeCfg.Seed = p.Seed + uint64(ci)*7919
		aeCfg.Workers = p.Workers
		sp = tr.begin("autoencoder.Train", root)
		det, hist, err := autoencoder.Train(scaledTrain, aeCfg)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if seqs, err := series.MakeSequences(scaledTrain, aeCfg.SeqLen, aeCfg.TrainStride); err == nil {
			windows += (len(seqs) - int(float64(len(seqs))*aeCfg.ValFrac)) * len(hist.TrainLoss)
		}
		filter, err := anomaly.NewFilter(autoencoder.Adapter{Detector: det}, p.Filter)
		if err != nil {
			return nil, 0, err
		}
		calib := scaledTrain
		if p.CalibFrac > 0 {
			cut := int(float64(len(scaledTrain)) * (1 - p.CalibFrac))
			if ctx := cut - p.SeqLen; ctx > 0 {
				calib = scaledTrain[ctx:]
			}
		}
		sp = tr.begin("anomaly.Calibrate", root)
		err = filter.Calibrate(calib)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		scaledAttacked, err := sc.Transform(injected.Values)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.begin("anomaly.Apply", root)
		res, err := filter.Apply(scaledAttacked)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		filtered, err := sc.Inverse(res.Filtered)
		if err != nil {
			return nil, 0, err
		}
		conf, err := metrics.EvalDetection(injected.Labels, res.Flags)
		if err != nil {
			return nil, 0, err
		}
		thr, err := filter.Threshold()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, &eval.ClientPrep{
			Zone: prof.Zone, Clean: clean, Attacked: injected.Values, Filtered: filtered,
			Labels: injected.Labels, Flags: res.Flags, Detection: metrics.Summarize(conf), Threshold: thr,
		})
	}
	return out, windows, nil
}

// composeScenarios runs the four arms of eval.RunScenarios one by one,
// with a span around each.
func composeScenarios(p eval.Params, clients []*eval.ClientPrep, tr *tracer, root int) (*eval.Report, error) {
	zones := make([]string, len(clients))
	clean := make([][]float64, len(clients))
	attacked := make([][]float64, len(clients))
	filtered := make([][]float64, len(clients))
	for i, c := range clients {
		zones[i], clean[i], attacked[i], filtered[i] = c.Zone, c.Clean, c.Attacked, c.Filtered
	}
	rep := &eval.Report{Params: p, Clients: clients}
	arms := []struct {
		name   string
		values [][]float64
		dst    **eval.ScenarioResult
	}{
		{"clean", clean, &rep.FedClean},
		{"attacked", attacked, &rep.FedAttacked},
		{"filtered", filtered, &rep.FedFiltered},
	}
	for _, a := range arms {
		sp := tr.begin("eval.RunFederated:"+a.name, root)
		res, err := eval.RunFederated(a.name, a.values, clean, zones, p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		*a.dst = res
	}
	sp := tr.begin("eval.RunCentralized:filtered", root)
	res, err := eval.RunCentralized("filtered", filtered, clean, p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rep.CentralFiltered = res
	return rep, nil
}

// checkPass checks one pass's outputs and returns the first failure.
func checkPass(p eval.Params, clients []*eval.ClientPrep, rep *eval.Report) string {
	var pooled metrics.Confusion
	var errFiltered, errAttacked float64
	for i, c := range clients {
		if err := checkDetection(c.Labels, c.Flags, c.Detection); err != nil {
			return fmt.Sprintf("client %d detection: %v", i+1, err)
		}
		if c.Detection.FPR > paperClientFPRCeiling {
			return fmt.Sprintf("client %d false-positive rate %.4f above %.2f", i+1, c.Detection.FPR, paperClientFPRCeiling)
		}
		ef, ea, err := checkFilter(c.Clean, c.Attacked, c.Filtered, c.Labels, c.Flags, p.Filter.MaxGap)
		if err != nil {
			return fmt.Sprintf("client %d filter: %v", i+1, err)
		}
		errFiltered, errAttacked = errFiltered+ef, errAttacked+ea
		pooled.Add(c.Detection.Confusion)
	}
	if pooled.TP+pooled.FN > 0 && !(errFiltered < errAttacked) {
		return fmt.Sprintf("filtered series no closer to the clean one on attack hours: mean error %v, attacked %v",
			errFiltered/float64(pooled.TP+pooled.FN), errAttacked/float64(pooled.TP+pooled.FN))
	}
	if pr, rc, fpr := pooled.Precision(), pooled.Recall(), pooled.FPR(); !(pr >= paperPrecisionFloor && rc >= paperRecallFloor && fpr <= paperFPRCeiling) {
		return fmt.Sprintf("pooled detection precision %.3f recall %.3f FPR %.4f outside floors %.2f/%.2f/%.2f",
			pr, rc, fpr, paperPrecisionFloor, paperRecallFloor, paperFPRCeiling)
	}
	arms := map[string]*eval.ScenarioResult{
		"federated clean": rep.FedClean, "federated attacked": rep.FedAttacked,
		"federated filtered": rep.FedFiltered, "centralized filtered": rep.CentralFiltered,
	}
	for name, arm := range arms {
		if len(arm.PerClient) != len(clients) {
			return fmt.Sprintf("%s: %d clients scored, want %d", name, len(arm.PerClient), len(clients))
		}
		if err := checkRegression(name, arm.PerClient); err != nil {
			return err.Error()
		}
	}
	return ""
}

// samePass checks that a pass reproduced the first pass of the run bit for
// bit: the pipeline is deterministic for a seed, and a traced pass,
// composed from the layer calls, must equal eval.Prepare and
// eval.RunScenarios.
func samePass(ref []*eval.ClientPrep, refRep *eval.Report, clients []*eval.ClientPrep, rep *eval.Report) string {
	for i, c := range clients {
		r := ref[i]
		switch {
		case c.Zone != r.Zone || math.Float64bits(c.Threshold) != math.Float64bits(r.Threshold):
			return fmt.Sprintf("client %d: zone %s threshold %v, first pass %s %v", i+1, c.Zone, c.Threshold, r.Zone, r.Threshold)
		case sameBits(c.Clean, r.Clean) >= 0 || sameBits(c.Attacked, r.Attacked) >= 0 || sameBits(c.Filtered, r.Filtered) >= 0:
			return fmt.Sprintf("client %d: series differ from the first pass", i+1)
		case !sameFlags(c.Labels, r.Labels) || !sameFlags(c.Flags, r.Flags) || c.Detection.Confusion != r.Detection.Confusion:
			return fmt.Sprintf("client %d: labels, flags or detection differ from the first pass", i+1)
		}
	}
	arms := [][2]*eval.ScenarioResult{
		{rep.FedClean, refRep.FedClean}, {rep.FedAttacked, refRep.FedAttacked},
		{rep.FedFiltered, refRep.FedFiltered}, {rep.CentralFiltered, refRep.CentralFiltered},
	}
	for _, a := range arms {
		for i := range a[0].PerClient {
			if a[0].PerClient[i] != a[1].PerClient[i] {
				return fmt.Sprintf("%s %s client %d: %+v, first pass %+v",
					a[0].Arch, a[0].Scenario, i+1, a[0].PerClient[i], a[1].PerClient[i])
			}
		}
	}
	return ""
}

func sameFlags(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
