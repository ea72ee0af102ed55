package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/rng"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/serve"
)

// fleet_serve: a scoring service with the paper-size detector judges a
// fleet of stations replayed hour by hour. Each tick submits one reading
// per station through cached Station handles and waits for every verdict
// before the next tick starts: a closed loop with at most fleetStations
// readings in flight, far below the ingress queue depth. The fleet does
// not use SubmitN, whose batch reservation can overwrite queued tasks and
// livelock near a full ring (README.md).
const (
	fleetStations = 256
	// fleetAttackEvery puts DDoS spikes on every 8th station.
	fleetAttackEvery = 8
	// fleetReloadEvery is the number of timed ticks between hot reloads of
	// the serving weights.
	fleetReloadEvery = 50
	// fleetHours is the length of each station's series; the replay wraps
	// around it when a run lasts longer.
	fleetHours = 4096
	// fleetBases is the number of generated zone series the stations are
	// cut from, each station at its own phase offset.
	fleetBases  = 12
	fleetSetups = 3
	// fleetMinTicks keeps at least ten ticks beyond the p90.
	fleetMinTicks    = 100
	fleetTickTimeout = 30 * time.Second
	// scoreTolerance bounds the difference between a served score and the
	// same window scored off the serving path (summation order only).
	scoreTolerance = 1e-9
	// fleetDetectorSeed fixes the served detector's training series and
	// initialisation across seeds: inference time depends on the trained
	// weights (up to 15% between detectors trained on different seeds,
	// README.md), so the seed varies only the fleet's readings and attacks.
	fleetDetectorSeed = 1
	// fleetRecallFloor and fleetCleanFlagCeiling are the detection floors
	// of the fleet (README.md).
	fleetRecallFloor      = 0.4
	fleetCleanFlagCeiling = 0.05
)

// fleetInput is the fleet's generated readings, already in the
// detector's scaled units.
type fleetInput struct {
	values [][]float64 // [station][hour]
	labels [][]bool    // [station][hour], true on injected hours
	train  []float64   // clean series the detector is trained on (seed-independent)
}

func (in *fleetInput) reading(s, g int) float64 { return in.values[s][g%fleetHours] }

func makeFleetInput(seed uint64) (*fleetInput, error) {
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}
	bases := make([][]float64, fleetBases)
	for b := range bases {
		res, err := dataset.Generate(dataset.Config{
			Profile: profiles[b%len(profiles)], Hours: fleetHours, Seed: seed*1000003 + uint64(b),
		})
		if err != nil {
			return nil, err
		}
		var sc scale.MinMaxScaler
		if bases[b], err = sc.FitTransform(res.Series.Values); err != nil {
			return nil, err
		}
	}
	in := &fleetInput{values: make([][]float64, fleetStations), labels: make([][]bool, fleetStations)}
	sched := attack.ScheduleConfig{Episodes: 16, MinLen: 4, MaxLen: 12, MinSeverity: 0.3, MaxSeverity: 0.8, MinGap: 48}
	for s := range in.values {
		base := bases[s%fleetBases]
		shift := (s / fleetBases) * 173
		v := make([]float64, fleetHours)
		for h := range v {
			v[h] = base[(h+shift)%fleetHours]
		}
		in.values[s], in.labels[s] = v, make([]bool, fleetHours)
		if s%fleetAttackEvery == fleetAttackEvery-1 {
			r := rng.New(seed ^ uint64(s+1)*0x9e3779b97f4a7c15)
			eps, err := attack.Schedule(sched, fleetHours, 0, r)
			if err != nil {
				return nil, err
			}
			res, err := attack.InjectDDoS(v, eps, attack.DefaultTraffic(), r)
			if err != nil {
				return nil, err
			}
			in.values[s], in.labels[s] = res.Values, res.Labels
		}
	}
	res, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: 720, Seed: fleetDetectorSeed})
	if err != nil {
		return nil, err
	}
	var sc scale.MinMaxScaler
	if in.train, err = sc.FitTransform(res.Series.Values); err != nil {
		return nil, err
	}
	return in, nil
}

// fleetDetectorConfig is the paper-size detector (window 24, LSTM 50/25)
// on a short training budget, so that set-up stays a few seconds.
func fleetDetectorConfig() autoencoder.Config {
	cfg := autoencoder.DefaultConfig()
	cfg.Epochs = 3
	cfg.Patience = 3
	cfg.TrainStride = 4
	cfg.Seed = fleetDetectorSeed
	return cfg
}

// fleetTick is one tick's verdict slots.
type fleetTick struct {
	recs []verdictRec
	got  atomic.Int32
	done chan struct{}
}

// fleetRig is a running service with its station handles and the record
// of every verdict it delivered.
type fleetRig struct {
	in       *fleetInput
	svc      *serve.Service
	det      *autoencoder.Detector
	thr      float64
	weights  []float64
	stations []*serve.Station
	replies  []func(serve.Verdict)
	cur      atomic.Pointer[fleetTick]
	ticks    [][]verdictRec
	timer    *time.Timer
}

func newFleetRig(in *fleetInput, tr *tracer) (*fleetRig, error) {
	root := tr.beginOp("op.setup")
	defer tr.end(root)
	sp := tr.begin("autoencoder.Train", root)
	det, _, err := autoencoder.Train(in.train, fleetDetectorConfig())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.CalibrateThreshold", root)
	thr, err := serve.CalibrateThreshold(det, in.train, 0.98)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.New", root)
	svc, err := serve.New(serve.Config{Detector: det, Threshold: thr, Mitigate: true})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &fleetRig{in: in, svc: svc, det: det, thr: thr, weights: det.Model().WeightsVector()}
	r.timer = time.NewTimer(time.Hour)
	r.timer.Stop()
	for s := 0; s < fleetStations; s++ {
		sp = tr.begin("serve.Station", root)
		h, err := svc.Station(fmt.Sprintf("station-%03d", s))
		tr.end(sp)
		if err != nil {
			svc.Close()
			return nil, err
		}
		r.stations = append(r.stations, h)
		r.replies = append(r.replies, r.replyFor(s))
	}
	for g := 0; g < det.Config().SeqLen-1; g++ {
		if _, err := r.tick(tr); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return r, nil
}

// replyFor builds station s's reply callback. It runs on a shard
// goroutine and fills the station's slot of the current tick.
func (r *fleetRig) replyFor(s int) func(serve.Verdict) {
	return func(v serve.Verdict) {
		t := r.cur.Load()
		rec := &t.recs[s]
		if atomic.AddInt32(&rec.n, 1) == 1 {
			rec.index, rec.epoch = v.Index, v.Epoch
			rec.ready, rec.flagged = v.Ready, v.Flagged
			rec.score, rec.value, rec.mitigated = v.Score, v.Value, v.Mitigated
		}
		if t.got.Add(1) == fleetStations {
			close(t.done)
		}
	}
}

// tick submits the next reading of every station and waits for all the
// verdicts. It returns the wall time from the first Submit to the last
// verdict.
func (r *fleetRig) tick(tr *tracer) (time.Duration, error) {
	g := len(r.ticks)
	t := &fleetTick{recs: make([]verdictRec, fleetStations), done: make(chan struct{})}
	r.cur.Store(t)
	root := tr.beginOp("op.tick")
	start := time.Now()
	for s, h := range r.stations {
		sp := tr.begin("serve.Submit", root)
		err := h.Submit(r.in.reading(s, g), r.replies[s])
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return 0, fmt.Errorf("tick %d: submit station %d: %w", g, s, err)
		}
	}
	sp := tr.begin("serve.await", root)
	r.timer.Reset(fleetTickTimeout)
	select {
	case <-t.done:
		r.timer.Stop()
	case <-r.timer.C:
		tr.end(sp)
		tr.end(root)
		return 0, fmt.Errorf("tick %d: %d of %d verdicts after %v", g, t.got.Load(), fleetStations, fleetTickTimeout)
	}
	wall := time.Since(start)
	tr.end(sp)
	tr.end(root)
	r.ticks = append(r.ticks, t.recs)
	return wall, nil
}

func (r *fleetRig) reload(tr *tracer) (time.Duration, error) {
	root := tr.beginOp("op.reload")
	sp := tr.begin("serve.ReloadWeights", root)
	start := time.Now()
	_, err := r.svc.ReloadWeights(r.weights, r.thr)
	d := time.Since(start)
	tr.end(sp)
	tr.end(root)
	return d, err
}

func runFleetServe(o options, tr *tracer) (*outcome, error) {
	in, err := makeFleetInput(o.seed)
	if err != nil {
		return nil, fmt.Errorf("fleet input: %w", err)
	}
	out := newOutcome()
	var setups []float64
	var rig *fleetRig
	for i := 0; i < fleetSetups; i++ {
		start := time.Now()
		r, err := newFleetRig(in, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < fleetSetups-1 {
			r.svc.Close()
			checkFleet(in, r, len(r.ticks), 1, out)
			continue
		}
		rig = r
	}
	defer rig.svc.Close()

	warm := len(rig.ticks)
	before := rig.svc.Stats()
	var walls, reloads []float64
	start := time.Now()
	deadline := start.Add(o.seconds)
	for n := 0; n < fleetMinTicks || time.Now().Before(deadline); n++ {
		if n > 0 && n%fleetReloadEvery == 0 {
			d, err := rig.reload(tr)
			if err != nil {
				return nil, fmt.Errorf("reload: %w", err)
			}
			reloads = append(reloads, ms(d))
		}
		tr.setOn(tracedOp(n))
		wall, err := rig.tick(tr)
		if err != nil {
			out.attempted += fleetStations
			out.failed += fleetStations
			out.fail("%v", err)
			break
		}
		walls = append(walls, ms(wall))
	}
	tr.setOn(true)
	timed := time.Since(start)
	after := rig.svc.Stats()
	finalEpoch := rig.svc.Epoch()
	rig.svc.Close()

	ticks := len(rig.ticks) - warm
	out.attempted += int64(ticks * fleetStations)
	checkFleet(in, rig, warm, 1+len(reloads), out)
	if finalEpoch != 1+len(reloads) {
		out.failed++
		out.fail("final epoch %d after %d reloads", finalEpoch, len(reloads))
	}

	out.figures["timed_ticks"] = float64(ticks)
	out.figures["reloads"] = float64(len(reloads))
	out.figures["verdicts_per_s"] = float64(ticks*fleetStations) / timed.Seconds()
	out.figures["tick_p50_ms"] = median(walls)
	out.figures["tick_p90_ms"] = tailQuantile(walls)
	wave := float64(after.BatchedWindows-before.BatchedWindows) / math.Max(1, float64(after.BatchCalls-before.BatchCalls))
	out.figures["mean_wave_windows"] = wave
	if tr == nil {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = median(walls)
		out.metrics["op_p90_ms"] = tailQuantile(walls)
		out.metrics["items_per_s"] = out.figures["verdicts_per_s"]
		return out, nil
	}

	addSpanMetrics(out, tr)
	out.metrics["trace.overhead_pct"] = overheadPct(walls)
	out.metrics["serve.wave_windows"] = wave
	out.metrics["serve.single_windows"] = float64(after.SingleWindows - before.SingleWindows)
	out.metrics["serve.rejected"] = float64(after.Rejected - before.Rejected)
	var submit []float64
	for _, d := range tr.durations("serve.Submit") {
		submit = append(submit, float64(d))
	}
	out.metrics["serve.submit_ns"] = mean(submit)
	out.metrics["serve.tick_wait_ms"] = tr.medianMs("serve.await")
	out.metrics["serve.verdict_p50_us"] = after.LatencyP50Micros
	out.metrics["serve.verdict_p99_us"] = after.LatencyP99Micros
	out.metrics["serve.steal_offered"] = float64(after.StealOffered - before.StealOffered)
	out.metrics["serve.steal_stolen"] = float64(after.StealStolen - before.StealStolen)
	out.metrics["serve.reload_ms"] = median(reloads)
	return out, runProbes(o, out, int(math.Round(wave)))
}

// checkFleet checks every verdict the rig recorded and scores each
// window again off the serving path. Readings from tick timedFrom on are
// timed operations: a failed check on one of them counts it as failed.
func checkFleet(in *fleetInput, r *fleetRig, timedFrom, finalEpoch int, out *outcome) {
	seqLen := r.det.Config().SeqLen
	bad, first := checkFleetVerdicts(r.ticks, in.reading, seqLen, r.thr, finalEpoch)
	if first != "" {
		out.fail("fleet verdicts: %s", first)
	}
	if first == "" {
		first = scoreOffPath(r, bad)
		if first != "" {
			out.fail("fleet scores: %s", first)
		}
	}
	for g := timedFrom; g < len(bad); g++ {
		for _, b := range bad[g] {
			if b {
				out.failed++
			}
		}
	}

	var tp, fn, fp, tn int
	for g := seqLen - 1; g < len(r.ticks); g++ {
		for s := range r.ticks[g] {
			label, flagged := in.labels[s][g%fleetHours], r.ticks[g][s].flagged
			switch {
			case label && flagged:
				tp++
			case label:
				fn++
			case flagged:
				fp++
			default:
				tn++
			}
		}
	}
	if timedFrom >= len(r.ticks) {
		return // a set-up's warm-up ticks have no scored readings
	}
	recall := float64(tp) / math.Max(1, float64(tp+fn))
	flagRate := float64(fp) / math.Max(1, float64(fp+tn))
	out.figures["recall"] = recall
	out.figures["clean_flag_rate"] = flagRate
	if tp+fn > 0 && recall < fleetRecallFloor {
		out.failed++
		out.fail("fleet recall %.3f on %d injected readings, floor %.2f", recall, tp+fn, fleetRecallFloor)
	}
	if flagRate > fleetCleanFlagCeiling {
		out.failed++
		out.fail("fleet flag rate %.4f on %d clean readings, ceiling %.2f", flagRate, fp+tn, fleetCleanFlagCeiling)
	}
}

// scoreOffPath scores every ready reading's window with a batch scorer of
// its own, the window rebuilt from the recorded mitigated history, and
// compares the served score (and, on flagged readings, the served
// reconstruction). Stations are split between GOMAXPROCS goroutines.
func scoreOffPath(r *fleetRig, bad [][]bool) string {
	seqLen := r.det.Config().SeqLen
	const batch = 512
	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var first string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scorer := r.det.NewBatchScorer()
			windows := make([][]float64, 0, batch)
			where := make([][2]int, 0, batch)
			backing := make([]float64, batch*seqLen)
			scores := make([]float64, batch)
			recons := make([]float64, batch)
			flush := func() {
				n := len(windows)
				if n == 0 {
					return
				}
				if err := scorer.ScoreLastInto(scores[:n], recons[:n], windows); err != nil {
					mu.Lock()
					if first == "" {
						first = err.Error()
					}
					mu.Unlock()
					return
				}
				for i, gs := range where {
					v := &r.ticks[gs[0]][gs[1]]
					ok := math.Abs(v.score-scores[i]) <= scoreTolerance &&
						(!v.flagged || math.Abs(v.mitigated-recons[i]) <= scoreTolerance)
					if !ok {
						mu.Lock()
						if bad[gs[0]] == nil {
							bad[gs[0]] = make([]bool, fleetStations)
						}
						bad[gs[0]][gs[1]] = true
						if first == "" {
							first = fmt.Sprintf("tick %d station %d: served score %v recon %v, off-path %v / %v",
								gs[0], gs[1], v.score, v.mitigated, scores[i], recons[i])
						}
						mu.Unlock()
					}
				}
				windows, where = windows[:0], where[:0]
			}
			for s := w; s < fleetStations; s += workers {
				for g := seqLen - 1; g < len(r.ticks); g++ {
					k := len(windows)
					win := backing[k*seqLen : (k+1)*seqLen]
					fleetWindow(win, r.ticks, s, g)
					windows = append(windows, win)
					where = append(where, [2]int{g, s})
					if len(windows) == batch {
						flush()
					}
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	return first
}
