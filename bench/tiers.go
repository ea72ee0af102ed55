package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/fed/wire"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/scale"
)

// fed_tiers: a two-tier federation over loopback TCP. The root talks to
// tierEdges served edges (its only two connections), each edge fronts
// tierStationsPerEdge served stations, every node runs the paper
// forecaster, both tiers use the q8 codec and the root checkpoints after
// every round. Each station holds one minibatch of local data, so
// dispatch, codecs, the partial fold and the checkpoint are a large share
// of each round beside local training.
const (
	tierEdges           = 2
	tierStationsPerEdge = 16
	tierStations        = tierEdges * tierStationsPerEdge
	// tierWindows is each station's local training set: one minibatch.
	tierWindows = 32
	tierSetups  = 5
	// tierSetupRounds is the length of a throwaway set-up's federation:
	// round 1 ends the set-up, the later rounds estimate how many rounds
	// fill the timed phase.
	tierSetupRounds = 3
	// tierMinRounds keeps at least ten timed rounds beyond the p90.
	tierMinRounds = 100
	// tierParityRounds is the length of the codec-none parity federation.
	tierParityRounds = 3
	// tierLossWindow is the number of final rounds whose mean local loss
	// must be below round 1's.
	tierLossWindow = 5
)

func tierSpec() nn.Spec { return nn.ForecasterSpec(50, 10) }

// tierLocalConfig is the local training every station runs per round
// under the q8 codec: one epoch over its minibatch on one gradient worker
// (each station is its own device). runTiers configures the root to send
// exactly this.
func tierLocalConfig(round int) fed.LocalTrainConfig {
	return fed.LocalTrainConfig{Epochs: 1, BatchSize: tierWindows, LearningRate: 1e-3, Workers: 1, Round: round, Codec: fed.CodecQ8}
}

// makeTierData cuts each station's scaled series from three generated
// zone series.
func makeTierData(seed uint64) ([][]float64, error) {
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}
	per := tierWindows + probeSeqLen
	hours := per * ((tierStations + len(profiles) - 1) / len(profiles))
	data := make([][]float64, tierStations)
	for p, prof := range profiles {
		res, err := dataset.Generate(dataset.Config{Profile: prof, Hours: hours, Seed: seed*7919 + uint64(p)})
		if err != nil {
			return nil, err
		}
		var sc scale.MinMaxScaler
		vals, err := sc.FitTransform(res.Series.Values)
		if err != nil {
			return nil, err
		}
		for s := p; s < tierStations; s += len(profiles) {
			k := s / len(profiles)
			data[s] = vals[k*per : (k+1)*per]
		}
	}
	return data, nil
}

func tierStationID(s int) string { return fmt.Sprintf("station-%02d", s) }

func tierEdgeID(e int) string { return fmt.Sprintf("edge-%d", e) }

func newTierClient(data [][]float64, s int, seed uint64) (*fed.Client, error) {
	return fed.NewClient(tierStationID(s), tierSpec(), data[s], probeSeqLen, seed+uint64(s)*104729)
}

// tierRig is the served tree: stations behind ServeClient, edges behind
// ServeEdge, and the root's handles on the edges.
type tierRig struct {
	servers []*fed.ClientServer
	remotes []*fed.RemoteClient
	roots   []*fed.RemoteEdge
}

func buildTiers(data [][]float64, seed uint64, codec fed.Codec, tr *tracer, parent int) (*tierRig, error) {
	rig := &tierRig{}
	for e := 0; e < tierEdges; e++ {
		var stations []fed.ClientHandle
		for k := 0; k < tierStationsPerEdge; k++ {
			s := e*tierStationsPerEdge + k
			c, err := newTierClient(data, s, seed)
			if err != nil {
				rig.close()
				return nil, err
			}
			sp := tr.begin("fed.ServeClient", parent)
			srv, err := fed.ServeClient(c, "127.0.0.1:0")
			tr.end(sp)
			if err != nil {
				rig.close()
				return nil, err
			}
			rig.servers = append(rig.servers, srv)
			rc := fed.NewRemoteClient(c.ID(), srv.Addr())
			rig.remotes = append(rig.remotes, rc)
			stations = append(stations, rc)
		}
		sp := tr.begin("fed.ServeEdge", parent)
		edge, err := fed.NewEdge(tierEdgeID(e), stations, fed.EdgeConfig{Codec: codec, Parallel: true, Seed: seed})
		var srv *fed.ClientServer
		if err == nil {
			srv, err = fed.ServeEdge(edge, "127.0.0.1:0", fed.ServerConfig{})
		}
		tr.end(sp)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.servers = append(rig.servers, srv)
		rig.roots = append(rig.roots, fed.NewRemoteEdge(edge.ID(), srv.Addr()))
	}
	return rig, nil
}

func (r *tierRig) close() {
	for _, h := range r.roots {
		h.Close()
	}
	for _, h := range r.remotes {
		h.Close()
	}
	for _, s := range r.servers {
		s.Stop()
	}
}

// traffic sums the bytes sent and received on the root's connections
// (to the edges) and on the edges' connections (to the stations).
func (r *tierRig) traffic() (root, subtree uint64) {
	for _, h := range r.roots {
		sent, recv := h.Traffic()
		root += sent + recv
	}
	for _, h := range r.remotes {
		sent, recv := h.Traffic()
		subtree += sent + recv
	}
	return root, subtree
}

// handshakeBytes is the preflight traffic of one federation, sized by the
// wire format: a Hello and its answer on every root and edge connection.
func handshakeBytes() (root, subtree uint64) {
	for e := 0; e < tierEdges; e++ {
		root += uint64(wire.HelloBytes() + wire.HelloOKBytes(len(tierEdgeID(e))))
	}
	for s := 0; s < tierStations; s++ {
		subtree += uint64(wire.HelloBytes() + wire.HelloOKBytes(len(tierStationID(s))))
	}
	return root, subtree
}

// tierRun is one federation over a rig, with the benchmark's own round
// timestamps.
type tierRun struct {
	stamps []time.Time
	stats  []fed.RoundStat
	res    *fed.RunResult
	dir    string
}

func runTiers(handles []fed.ClientHandle, rounds int, seed uint64, codec fed.Codec, dir string, onRound func(r *tierRun)) (*tierRun, error) {
	run := &tierRun{dir: dir}
	lt := tierLocalConfig(0)
	cfg := fed.Config{
		Rounds: rounds, EpochsPerRound: lt.Epochs, BatchSize: lt.BatchSize, LearningRate: lt.LearningRate,
		WorkersPerClient: lt.Workers, Seed: seed, Parallel: true, Codec: codec,
		OnRound: func(st fed.RoundStat, _ []float64) {
			run.stamps = append(run.stamps, time.Now())
			run.stats = append(run.stats, st)
			if onRound != nil {
				onRound(run)
			}
		},
	}
	if dir != "" {
		cfg.Checkpoint = fed.CheckpointConfig{Dir: dir, Every: 1}
	}
	co, err := fed.NewCoordinator(tierSpec(), handles, cfg)
	if err != nil {
		return nil, err
	}
	if run.res, err = co.Run(); err != nil {
		return nil, err
	}
	return run, nil
}

// roundWalls are the walls of rounds 2 onwards, between consecutive
// OnRound stamps, in milliseconds.
func (r *tierRun) roundWalls() []float64 {
	var out []float64
	for i := 1; i < len(r.stamps); i++ {
		out = append(out, ms(r.stamps[i].Sub(r.stamps[i-1])))
	}
	return out
}

func runFedTiers(o options, tr *tracer) (*outcome, error) {
	data, err := makeTierData(o.seed)
	if err != nil {
		return nil, fmt.Errorf("station data: %w", err)
	}
	out := newOutcome()
	var setups, estimate []float64
	for i := 0; i < tierSetups; i++ {
		root := tr.beginOp("op.setup")
		start := time.Now()
		rig, err := buildTiers(data, o.seed, fed.CodecQ8, tr, root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sp := tr.begin("fed.Coordinator.Run", root)
		run, err := runTiers(rootHandles(rig), tierSetupRounds, o.seed, fed.CodecQ8,
			filepath.Join(o.dir, fmt.Sprintf("setup-%d", i)), nil)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("set-up federation: %w", err)
		}
		setups = append(setups, run.stamps[0].Sub(start).Seconds())
		estimate = append(estimate, run.roundWalls()...)
		checkTierRun(rig, run, false, out)
		rig.close()
	}
	rounds := int(math.Ceil(o.seconds.Seconds() * 1000 / median(estimate)))
	rounds = max(rounds, tierMinRounds)

	// The timed federation: set-up once more, then rounds 2..rounds+1.
	start := time.Now()
	setupOp := tr.beginOp("op.setup")
	rig, err := buildTiers(data, o.seed, fed.CodecQ8, tr, setupOp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer rig.close()
	runStart := time.Now()
	run, err := runTiers(rootHandles(rig), 1+rounds, o.seed, fed.CodecQ8, filepath.Join(o.dir, "timed"),
		func(r *tierRun) {
			n := len(r.stamps)
			switch {
			case n == 1:
				tr.record("fed.round", setupOp, runStart, r.stamps[0])
				tr.end(setupOp)
				tr.setOn(false)
			case tracedOp(n - 2):
				tr.setOn(true)
				op := tr.recordOp("op.round", r.stamps[n-2], r.stamps[n-1])
				tr.record("fed.round", op, r.stamps[n-2], r.stamps[n-1])
				tr.setOn(false)
			}
		})
	tr.setOn(true)
	if err != nil {
		return nil, fmt.Errorf("timed federation: %w", err)
	}
	setups = append(setups, run.stamps[0].Sub(start).Seconds())
	out.attempted = int64(rounds)
	checkTierRun(rig, run, true, out)

	walls := run.roundWalls()
	var down, up, subDown, subUp uint64
	for _, st := range run.stats[1:] {
		down, up, subDown, subUp = down+st.BytesDown, up+st.BytesUp, subDown+st.SubtreeBytesDown, subUp+st.SubtreeBytesUp
	}
	n := float64(rounds)
	out.figures["timed_rounds"] = n
	out.figures["round_p50_ms"] = median(walls)
	out.figures["round_p90_ms"] = tailQuantile(walls)
	out.figures["root_bytes_per_round"] = float64(down+up) / n
	out.figures["tree_bytes_per_round"] = float64(down+up+subDown+subUp) / n
	out.figures["leaf_updates_per_s"] = tierStations * n / secs(run.stamps[len(run.stamps)-1].Sub(run.stamps[0]))

	if err := checkTierParity(data, o.seed, tr); err != nil {
		out.failed++
		out.fail("parity: %v", err)
	}
	if tr == nil {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = median(walls)
		out.metrics["op_p90_ms"] = tailQuantile(walls)
		out.metrics["items_per_s"] = out.figures["leaf_updates_per_s"]
		return out, nil
	}
	out.metrics["trace.overhead_pct"] = overheadPct(walls)
	out.metrics["fed.root_bytes_down"] = float64(down) / n
	out.metrics["fed.root_bytes_up"] = float64(up) / n
	out.metrics["fed.subtree_bytes_down"] = float64(subDown) / n
	out.metrics["fed.subtree_bytes_up"] = float64(subUp) / n
	out.metrics["fed.root_bytes_per_round"] = out.figures["root_bytes_per_round"]
	out.metrics["fed.tree_bytes_per_round"] = out.figures["tree_bytes_per_round"]
	addSpanMetrics(out, tr)
	return out, runProbes(o, out, 0)
}

func rootHandles(r *tierRig) []fed.ClientHandle {
	hs := make([]fed.ClientHandle, len(r.roots))
	for i, h := range r.roots {
		hs[i] = h
	}
	return hs
}

// checkTierRun checks a finished federation: every round aggregated all
// leaves, the byte counters of the root's and the edges' connections match
// the rounds' byte figures, the latest checkpoint decodes to the returned
// global weights and round, and the final rounds' mean local loss is below
// round 1's. In the timed federation every round after the first is a
// timed operation, and a miss of a federation-wide check counts once.
func checkTierRun(rig *tierRig, run *tierRun, timed bool, out *outcome) {
	for i, st := range run.stats {
		if err := checkRound(st, tierStations); err != nil {
			if timed && i > 0 {
				out.failed++
			}
			out.fail("%v", err)
		}
	}
	miss := func(format string, args ...any) {
		if timed {
			out.failed++
		}
		out.fail(format, args...)
	}
	root, subtree := rig.traffic()
	rootHello, subtreeHello := handshakeBytes()
	if err := checkTraffic(root, subtree, run.stats, rootHello, subtreeHello); err != nil {
		miss("%v", err)
	}
	cp, _, err := fed.LatestCheckpoint(run.dir)
	switch {
	case err != nil:
		miss("latest checkpoint: %v", err)
	case cp.Round != len(run.stats):
		miss("latest checkpoint is round %d of %d", cp.Round, len(run.stats))
	case sameBits(cp.Global, run.res.Global) >= 0:
		miss("checkpoint weights differ from the returned global at coordinate %d", sameBits(cp.Global, run.res.Global))
	}
	if !timed {
		return
	}
	first := run.stats[0].MeanLoss
	var last float64
	tail := run.stats[len(run.stats)-tierLossWindow:]
	for _, st := range tail {
		last += st.MeanLoss / float64(len(tail))
	}
	if !(last < first) {
		miss("mean local loss %v over the last %d rounds, round 1 %v", last, len(tail), first)
	}
}

// checkTierParity runs a few untimed rounds with codec none through the
// TCP tiers and an in-process flat FedAvg over the same stations; the
// global weights must agree in every bit.
func checkTierParity(data [][]float64, seed uint64, tr *tracer) error {
	root := tr.beginOp("op.parity")
	defer tr.end(root)
	rig, err := buildTiers(data, seed, fed.CodecNone, tr, root)
	if err != nil {
		return err
	}
	defer rig.close()
	sp := tr.begin("fed.Coordinator.Run", root)
	tcp, err := runTiers(rootHandles(rig), tierParityRounds, seed, fed.CodecNone, "", nil)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("tiered federation: %w", err)
	}
	flat := make([]fed.ClientHandle, tierStations)
	for s := range flat {
		if flat[s], err = newTierClient(data, s, seed); err != nil {
			return err
		}
	}
	sp = tr.begin("fed.Coordinator.Run", root)
	inproc, err := runTiers(flat, tierParityRounds, seed, fed.CodecNone, "", nil)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("flat federation: %w", err)
	}
	if i := sameBits(tcp.res.Global, inproc.res.Global); i >= 0 {
		return fmt.Errorf("after %d rounds the tiered global differs from the flat one at coordinate %d",
			tierParityRounds, i)
	}
	return nil
}
