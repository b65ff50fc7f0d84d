package sim_test

// Differential suite for the fused oracle error: Run takes each round's
// per-node errors from the phase-1 activation (Engine.stepErrors)
// instead of a separate Errors scan. After every round those errors
// must equal the scan's bit for bit, and a whole Run must match a
// reference loop of Step + Errors — for every shard count, even or
// uneven, and every state change the fused path has to see through: hung, crashed and silently crashed nodes, detector
// evictions, interceptor rounds and open-world joins and leaves.

import (
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// fusedCase is one engine configuration of the fused-error suite.
type fusedCase struct {
	name    string
	mk      func() gossip.Protocol
	opts    []sim.EngineOption
	setup   func(e *sim.Engine)
	onRound func(e *sim.Engine, round int)
	eps     float64 // Run's Eps; 0 runs all rounds
}

const fusedRounds = 60

func fusedCases() []fusedCase {
	pcf := func() gossip.Protocol { return core.NewEfficient() }
	return []fusedCase{
		{name: "plain", mk: pcf, eps: 0.05},
		{
			name: "hang-crash-silent",
			mk:   pcf,
			opts: []sim.EngineOption{sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 10}})},
			onRound: func(e *sim.Engine, r int) {
				switch r {
				case 8:
					e.HangNode(5)
				case 12:
					e.CrashNode(9)
				case 15:
					e.CrashNodeSilent(40)
				case 30:
					e.ResumeNode(5)
				}
			},
		},
		{
			name:  "loss-interceptor",
			mk:    pcf,
			setup: func(e *sim.Engine) { e.SetInterceptor(fault.NewLoss(0.1, 3)) },
		},
		{
			name: "join-leave",
			mk:   pcf,
			opts: []sim.EngineOption{sim.WithJoinFactory(pcf)},
			onRound: func(e *sim.Engine, r int) {
				switch r {
				case 10:
					e.JoinNode(e.N(), 3.5, []int{0, 17})
				case 18:
					e.LeaveNode(3)
				case 25:
					e.JoinNode(e.N(), 1, []int{63, 64})
				}
			},
		},
	}
}

// fusedLayouts is the executor grid: shard counts 1, 2 and 8, which
// split fusedGraph's 64 nodes evenly, and 3 and 7, which do not. The
// join-leave case's joins then grow the last shard.
func fusedLayouts() []struct {
	label string
	opt   sim.EngineOption
} {
	return []struct {
		label string
		opt   sim.EngineOption
	}{
		{"P=1", sim.WithShards(1)},
		{"P=2", sim.WithShards(2)},
		{"P=8", sim.WithShards(8)},
		{"P=3", sim.WithShards(3)},
		{"P=7", sim.WithShards(7)},
	}
}

// fusedGraph is a heap-ordered binary tree of 64 nodes.
func fusedGraph() *topology.Graph { return topology.BinaryTree(64) }

func buildFused(tc fusedCase, g *topology.Graph, layout sim.EngineOption) *sim.Engine {
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(7*i%19) + 0.25
	}
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = tc.mk()
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 23, append([]sim.EngineOption{layout}, tc.opts...)...)
	if tc.setup != nil {
		tc.setup(e)
	}
	return e
}

// TestShardFusedErrorsMatchScan: after every round, the errors the fused
// step hands Run equal a fresh Errors scan bit for bit.
func TestShardFusedErrorsMatchScan(t *testing.T) {
	withParallelWorkers(t, 4)
	g := fusedGraph()
	for _, tc := range fusedCases() {
		for _, l := range fusedLayouts() {
			t.Run(tc.name+"/"+l.label, func(t *testing.T) {
				e := buildFused(tc, g, l.opt)
				defer e.Close()
				for r := 0; r < fusedRounds; r++ {
					if tc.onRound != nil {
						tc.onRound(e, e.Round())
					}
					fused := append([]float64(nil), e.StepErrors()...)
					scan := e.Errors()
					if !sameBits(bitsOf(fused), bitsOf(scan)) {
						t.Fatalf("round %d: fused errors %v, scan %v", e.Round(), fused, scan)
					}
				}
			})
		}
	}
}

// referenceRun is Run's loop (MaxRounds, Eps, Record, OnRound) written
// with an explicit Step + Errors per round.
func referenceRun(e *sim.Engine, cfg sim.RunConfig) sim.Result {
	res := sim.Result{BestMax: math.Inf(1)}
	for r := 0; r < cfg.MaxRounds; r++ {
		if cfg.OnRound != nil {
			cfg.OnRound(e, e.Round())
		}
		e.Step()
		errs := e.Errors()
		maxErr := stats.Max(errs)
		res.Series.Record(e.Round(), errs)
		if maxErr < res.BestMax {
			res.BestMax = maxErr
		}
		res.Rounds = r + 1
		if cfg.Eps > 0 && maxErr <= cfg.Eps {
			res.Converged = true
			break
		}
	}
	return res
}

// TestShardFusedRunMatchesReference: Run on the fused path returns the
// same Result (rounds, convergence, best error, recorded series) and
// leaves the same estimates as the Step + Errors reference loop.
func TestShardFusedRunMatchesReference(t *testing.T) {
	withParallelWorkers(t, 4)
	g := fusedGraph()
	for _, tc := range fusedCases() {
		for _, l := range fusedLayouts() {
			t.Run(tc.name+"/"+l.label, func(t *testing.T) {
				cfg := sim.RunConfig{MaxRounds: 4 * fusedRounds, Eps: tc.eps, Record: true, OnRound: tc.onRound}
				run := buildFused(tc, g, l.opt)
				defer run.Close()
				ref := buildFused(tc, g, l.opt)
				defer ref.Close()
				got, want := run.Run(cfg), referenceRun(ref, cfg)
				if tc.eps > 0 && !want.Converged {
					t.Fatalf("reference did not reach eps %g in %d rounds (best %g)", tc.eps, want.Rounds, want.BestMax)
				}
				if got.Rounds != want.Rounds || got.Converged != want.Converged ||
					math.Float64bits(got.BestMax) != math.Float64bits(want.BestMax) {
					t.Fatalf("Run gave rounds=%d converged=%v best=%v, reference rounds=%d converged=%v best=%v",
						got.Rounds, got.Converged, got.BestMax, want.Rounds, want.Converged, want.BestMax)
				}
				if len(got.Series) != len(want.Series) {
					t.Fatalf("series has %d points, want %d", len(got.Series), len(want.Series))
				}
				for k, p := range got.Series {
					w := want.Series[k]
					if p.Iteration != w.Iteration || math.Float64bits(p.Max) != math.Float64bits(w.Max) ||
						math.Float64bits(p.Median) != math.Float64bits(w.Median) {
						t.Fatalf("series point %d = %+v, want %+v", k, p, w)
					}
				}
				gotEst, wantEst := run.Estimates(), ref.Estimates()
				for i := range wantEst {
					if !sameBits(bitsOf(gotEst[i]), bitsOf(wantEst[i])) {
						t.Fatalf("node %d estimate %v, want %v", i, gotEst[i], wantEst[i])
					}
				}
			})
		}
	}
}

// TestShardStepErrorsAllocFree pins the Engine doc's "Step + Errors is
// allocation-free" on a 2-shard engine whose worker pool really fans
// out, for both the explicit scan and Run's fused step.
func TestShardStepErrorsAllocFree(t *testing.T) {
	withParallelWorkers(t, 2)
	g := topology.Hypercube(8)
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1, sim.WithShards(2))
	defer e.Close()
	for r := 0; r < 64; r++ {
		e.Step()
		e.Errors()
		e.StepErrors()
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Step+Errors", func() { e.Step(); e.Errors() }},
		{"fused step", func() { e.StepErrors() }},
	} {
		if avg := testing.AllocsPerRun(100, c.f); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}
