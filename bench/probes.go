package main

import (
	"fmt"
	"math"
	"time"

	"github.com/evfed/evfed/internal/autoencoder"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/mat"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/rng"
)

// The layer probes time one layer call at a fixed shape, outside any
// workload, so that a change to the layer shows even where a workload's
// end-to-end figures hide it. Every traced run runs them all.

// probeBudget is the time each probe spends repeating its call; the
// median repetition is reported.
const probeBudget = 300 * time.Millisecond

// Shapes the probes share with the workloads.
const (
	probeBatch     = 32    // minibatch of every trainer (paper: 32)
	probeSeqLen    = 24    // window length (paper: 24)
	probeGateUnits = 50    // LSTM-50 gate GEMM: 4·50 gate rows over 50 inputs
	probeDim       = 10921 // paper forecaster (LSTM 50, Dense 10) weights
	probeWave      = 128   // score-window batch when no fleet wave was measured
)

// repeatMedian times reps calls of fn per repetition and returns the
// median time of one call.
func repeatMedian(reps int, fn func() error) (time.Duration, error) {
	d, err := timeMedian(probeBudget, 5, func() error {
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(reps), err
}

// runProbes runs every layer probe and stores its metric. wave is the
// score-window batch size of the autoencoder probe (the fleet's mean wave
// size on fleet_serve).
func runProbes(o options, out *outcome, wave int) error {
	if wave < 1 {
		wave = probeWave
	}
	r := rng.New(o.seed ^ 0x9b0be)
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"mat.multbias_gflops", func() (float64, error) { return probeMulTBias(r) }},
		{"mat.mulatadd_gflops", func() (float64, error) { return probeMulATAdd(r) }},
		{"nn.ae_step_ms", func() (float64, error) {
			return probeTrainStep(nn.AutoencoderSpec(probeSeqLen, 12, 6, 0.2), true, o.seed)
		}},
		{"nn.forecaster_step_ms", func() (float64, error) {
			return probeTrainStep(nn.ForecasterSpec(20, 8), false, o.seed)
		}},
		{"autoencoder.score_window_us", func() (float64, error) { return probeScoreWindow(r, wave, o.seed) }},
		{"fed.local_train_ms", func() (float64, error) { return probeLocalTrain(o.seed) }},
		{"fed.checkpoint_save_ms", func() (float64, error) { return probeCheckpoint(r, o.dir, o.seed) }},
	}
	for _, p := range probes {
		v, err := p.fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		out.metrics[p.name] = v
	}
	return probeWire(r, out)
}

func randomMatrix(r *rng.Source, rows, cols int) *mat.Matrix {
	m := mat.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

// probeMulTBias times the forward gate GEMM of an LSTM-50 layer at batch
// 32: z = x·Wᵀ + b with x 32×50 and W 200×50.
func probeMulTBias(r *rng.Source) (float64, error) {
	x := randomMatrix(r, probeBatch, probeGateUnits)
	w := randomMatrix(r, 4*probeGateUnits, probeGateUnits)
	b := randomMatrix(r, 1, 4*probeGateUnits).Row(0)
	z := mat.NewMatrix(probeBatch, 4*probeGateUnits)
	d, err := repeatMedian(200, func() error { z.MulTBias(x, w, b); return nil })
	flops := 2.0 * probeBatch * 4 * probeGateUnits * probeGateUnits
	return flops / d.Seconds() / 1e9, err
}

// probeMulATAdd times the backward weight-gradient GEMM of the same
// layer: dW += dZᵀ·x with dZ 32×200 and x 32×50.
func probeMulATAdd(r *rng.Source) (float64, error) {
	dz := randomMatrix(r, probeBatch, 4*probeGateUnits)
	x := randomMatrix(r, probeBatch, probeGateUnits)
	gw := mat.NewMatrix(4*probeGateUnits, probeGateUnits)
	d, err := repeatMedian(200, func() error { gw.MulATAdd(dz, x); return nil })
	flops := 2.0 * probeBatch * 4 * probeGateUnits * probeGateUnits
	return flops / d.Seconds() / 1e9, err
}

// probeTrainStep times one minibatch through ForwardBatch, the MSE
// gradient, BackwardBatch and an Adam step. reconstruct selects
// autoencoder targets (the input itself) over one-step forecasts.
func probeTrainStep(spec nn.Spec, reconstruct bool, seed uint64) (float64, error) {
	m, err := nn.Build(spec, seed)
	if err != nil {
		return 0, err
	}
	r := rng.New(seed ^ 0x57e9)
	x := &nn.BatchSeq{B: probeBatch, D: 1}
	for t := 0; t < probeSeqLen; t++ {
		x.Steps = append(x.Steps, randomMatrix(r, probeBatch, 1))
	}
	rngs := make([]*rng.Source, probeBatch)
	for i := range rngs {
		rngs[i] = rng.New(seed + uint64(i))
	}
	ws := nn.NewWorkspace()
	ctx := &nn.Context{Train: true, RNG: r, WS: ws, BatchRNGs: rngs}
	gs := m.NewGradSet()
	var params []*mat.Matrix
	for _, p := range m.Params() {
		params = append(params, p.Value)
	}
	opt := nn.NewAdam(1e-3)
	var target, dOut *nn.BatchSeq
	var loss nn.MSE
	d, err := repeatMedian(5, func() error {
		ws.Reset()
		pred, caches := m.ForwardBatch(x, ctx)
		if dOut == nil {
			dOut, target = &nn.BatchSeq{B: pred.B, D: pred.D}, x
			for range pred.Steps {
				dOut.Steps = append(dOut.Steps, mat.NewMatrix(pred.B, pred.D))
			}
			if !reconstruct {
				target = &nn.BatchSeq{B: pred.B, D: pred.D}
				for range pred.Steps {
					target.Steps = append(target.Steps, randomMatrix(r, pred.B, pred.D))
				}
			}
		}
		if l := loss.EvalBatchInto(dOut, pred, target); math.IsNaN(l) {
			return fmt.Errorf("loss is NaN")
		}
		gs.Zero()
		m.BackwardBatch(caches, dOut, gs)
		opt.Step(params, gs.Flat())
		return nil
	})
	return ms(d), err
}

// probeScoreWindow times BatchScorer.ScoreLastInto on a wave of windows
// of the paper-size detector and reports the time per window.
func probeScoreWindow(r *rng.Source, wave int, seed uint64) (float64, error) {
	cfg := autoencoder.DefaultConfig()
	m, err := nn.Build(nn.AutoencoderSpec(cfg.SeqLen, cfg.EncoderUnits, cfg.Bottleneck, cfg.Dropout), seed)
	if err != nil {
		return 0, err
	}
	det, err := autoencoder.FromWeights(cfg, m.WeightsVector())
	if err != nil {
		return 0, err
	}
	windows := make([][]float64, wave)
	for i := range windows {
		windows[i] = randomMatrix(r, 1, cfg.SeqLen).Row(0)
	}
	scores, recons := make([]float64, wave), make([]float64, wave)
	scorer := det.NewBatchScorer()
	d, err := repeatMedian(1, func() error { return scorer.ScoreLastInto(scores, recons, windows) })
	return float64(d) / float64(time.Microsecond) / float64(wave), err
}

// probeLocalTrain times fed.Client.Train at the fed_tiers station shape:
// the paper forecaster, one epoch over one minibatch, q8 codec.
func probeLocalTrain(seed uint64) (float64, error) {
	spec := nn.ForecasterSpec(50, 10)
	values := make([]float64, tierWindows+probeSeqLen)
	r := rng.New(seed ^ 0x10ca1)
	for i := range values {
		values[i] = r.Float64()
	}
	c, err := fed.NewClient("probe", spec, values, probeSeqLen, seed)
	if err != nil {
		return 0, err
	}
	m, err := nn.Build(spec, seed+1)
	if err != nil {
		return 0, err
	}
	global := m.WeightsVector()
	round := 0
	d, err := repeatMedian(1, func() error {
		_, err := c.Train(global, tierLocalConfig(round))
		round++
		return err
	})
	return ms(d), err
}

func randomVector(r *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Normal(0, 0.1)
	}
	return v
}

// probeCheckpoint times fed.SaveCheckpoint of a paper-forecaster-size
// checkpoint (write, fsync, rename) into the run's scratch directory.
func probeCheckpoint(r *rng.Source, dir string, seed uint64) (float64, error) {
	cp := &fed.Checkpoint{Seed: seed, Round: 1, Dim: probeDim, Global: randomVector(r, probeDim)}
	d, err := repeatMedian(1, func() error {
		_, err := fed.SaveCheckpoint(dir, cp)
		return err
	})
	return ms(d), err
}

// probeWire times the q8 vector codec and the edge partial codec at the
// paper forecaster's 10,921 weights.
func probeWire(r *rng.Source, out *outcome) error {
	v, ref := randomVector(r, probeDim), randomVector(r, probeDim)
	recon, dst := make([]float64, probeDim), make([]float64, probeDim)
	var buf []byte
	var err error
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	enc, err := repeatMedian(20, func() error {
		buf, err = wire.AppendVector(buf[:0], wire.VecQ8, v, ref, recon)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := repeatMedian(20, func() error {
		_, _, err := wire.DecodeVector(buf, dst, ref)
		return err
	})
	if err != nil {
		return err
	}
	out.metrics["wire.q8_encode_us"], out.metrics["wire.q8_decode_us"] = us(enc), us(dec)
	p := wire.TrainPartial{NodeID: "edge-0", LeafParticipants: 16, SampleSum: 512, Count: 16,
		Dim: probeDim, WeightTotal: 512, Hi: v, Lo: ref}
	enc, err = repeatMedian(20, func() error {
		buf, err = wire.AppendTrainPartial(buf[:0], p)
		return err
	})
	if err != nil {
		return err
	}
	dec, err = repeatMedian(20, func() error {
		_, err := wire.ParseTrainPartial(buf)
		return err
	})
	out.metrics["wire.partial_encode_us"], out.metrics["wire.partial_decode_us"] = us(enc), us(dec)
	return err
}
