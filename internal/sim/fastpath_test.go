package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

var allProtocols = []struct {
	name string
	mk   func() gossip.Protocol
}{
	{"pushsum", func() gossip.Protocol { return pushsum.New() }},
	{"pushflow", func() gossip.Protocol { return pushflow.New() }},
	{"flowupdate", func() gossip.Protocol { return flowupdate.New() }},
	{"pcf", func() gossip.Protocol { return core.NewEfficient() }},
	{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
}

// faultyRun exercises the round loop plus the failure paths: a notified
// link failure and a node crash mid-run, with per-round recording.
func faultyRun(e *sim.Engine) sim.Result {
	plan := fault.NewPlan(
		fault.LinkFailure(30, 0, 1),
		fault.NodeCrash(60, 5),
	)
	return e.Run(sim.RunConfig{MaxRounds: 120, Record: true, OnRound: plan.OnRound})
}

func sameSeries(t *testing.T, label string, a, b stats.Series) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: series lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: series diverge at point %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func sameEstimates(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: estimate counts differ", label)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: node %d estimate widths differ", label, i)
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("%s: node %d component %d: %g vs %g", label, i, k, a[i][k], b[i][k])
			}
		}
	}
}

// FillMessage into a recycled pooled message must match FillMessage
// into a fresh gossip.Message{From, To}: same wire contents and the same
// sender state afterwards. The recycled message carries what a previous
// use leaves in the engine's free list — full-width flows holding
// garbage, a stale control pair and a stale header — so a protocol that
// leaves an unused flow untruncated, or reads a field it should
// overwrite, is caught. Senders are cloned from a running engine (after
// a link failure) so every protocol is checked in evolved states, not
// just at Reset.
func TestFillRecycledMatchesFresh(t *testing.T) {
	g := topology.Hypercube(3)
	n := g.N()
	init := make([]gossip.Value, n)
	for i := range init {
		init[i] = gossip.Vector([]float64{float64(5*i%13) + 0.5, -float64(i)}, 1)
	}
	for _, tc := range allProtocols {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(g, fuzzProtos(n, tc.mk), init, 99, sim.WithShards(1))
			defer e.Close()
			e.FailLink(0, 1)
			clone := func(i int) gossip.Protocol {
				var w gossip.StateWriter
				e.Protocol(i).SaveState(&w)
				p := tc.mk()
				p.Reset(i, g.Neighbors(i), init[i].Clone())
				r := gossip.NewStateReader(w.State)
				p.LoadState(r)
				if r.Err() != nil || !r.Exhausted() {
					t.Fatalf("node %d: state does not round-trip (%v)", i, r.Err())
				}
				return p
			}
			for round := 0; round < 12; round++ {
				for i := 0; i < n; i++ {
					for _, j32 := range e.Protocol(i).LiveNeighbors() {
						j := int(j32)
						a, b := clone(i), clone(i)
						fresh := gossip.Message{From: i, To: j}
						a.FillMessage(j, &fresh)
						recycled := dirtyMessage(init[0].Width())
						b.FillMessage(j, recycled)
						if err := sameWire(fresh, *recycled); err != "" {
							t.Fatalf("round %d, %d→%d: %s", round, i, j, err)
						}
						var wa, wb gossip.StateWriter
						a.SaveState(&wa)
						b.SaveState(&wb)
						if !sameState(wa.State, wb.State) {
							t.Fatalf("round %d, %d→%d: sender state differs after a recycled fill", round, i, j)
						}
					}
				}
				e.Step()
			}
		})
	}
}

// dirtyMessage returns a message in the shape the engine's free list
// hands out after a previous use: flows restored to full width but
// holding garbage, and a stale header and control pair.
func dirtyMessage(width int) *gossip.Message {
	m := &gossip.Message{From: 77, To: 78, Kind: gossip.KindKeepalive, C: 9, R: 123456}
	m.Flow1 = gossip.NewValue(width)
	m.Flow2 = gossip.NewValue(width)
	for k := 0; k < width; k++ {
		m.Flow1.X[k] = math.NaN()
		m.Flow2.X[k] = 1e300
	}
	m.Flow1.W, m.Flow2.W = -3, math.Inf(1)
	return m
}

// sameWire reports how two filled messages differ, or "" when their
// header, control pair, flow widths and flow bits all match.
func sameWire(a, b gossip.Message) string {
	switch {
	case a.From != b.From || a.To != b.To || a.Kind != b.Kind:
		return fmt.Sprintf("header %d→%d %s vs %d→%d %s", a.From, a.To, a.Kind, b.From, b.To, b.Kind)
	case a.C != b.C || a.R != b.R:
		return fmt.Sprintf("control pair (%d, %d) vs (%d, %d)", a.C, a.R, b.C, b.R)
	case !sameValueBits(a.Flow1, b.Flow1):
		return fmt.Sprintf("Flow1 %v vs %v", a.Flow1, b.Flow1)
	case !sameValueBits(a.Flow2, b.Flow2):
		return fmt.Sprintf("Flow2 %v vs %v", a.Flow2, b.Flow2)
	}
	return ""
}

func sameValueBits(a, b gossip.Value) bool {
	return math.Float64bits(a.W) == math.Float64bits(b.W) && sameBits(bitsOf(a.X), bitsOf(b.X))
}

// sameState compares two snapshot streams bit for bit.
func sameState(a, b gossip.State) bool {
	return sameBits(bitsOf(a.F64), bitsOf(b.F64)) && slices.Equal(a.U64, b.U64) &&
		slices.Equal(a.I32, b.I32) && bytes.Equal(a.B, b.B)
}

// Engine.Reset promises that a reused engine reproduces a freshly
// constructed one bit-for-bit: same RNG stream, same schedule, same
// protocol state, even when the previous trial left failed links, crashed
// nodes and queued messages behind.
func TestResetReproducesFresh(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%11) + 0.25
	}
	for _, tc := range allProtocols {
		t.Run(tc.name, func(t *testing.T) {
			fresh := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 42)
			resFresh := faultyRun(fresh)

			reused := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7)
			// Dirty the engine thoroughly: different schedule, permanent
			// and silent failures, a hung node, queued in-flight messages.
			reused.SilenceLink(2, 3)
			reused.HangNode(9)
			reused.Run(sim.RunConfig{MaxRounds: 25})
			reused.FailLink(0, 2)
			reused.CrashNodeSilent(12)
			reused.Step()

			reused.Reset(42)
			resReused := faultyRun(reused)
			sameSeries(t, tc.name, resFresh.Series, resReused.Series)
			sameEstimates(t, tc.name, fresh.Estimates(), reused.Estimates())
		})
	}
}

// Reset must also rewind detector state: a reused detector-enabled engine
// reproduces a fresh one across a silent outage with suspicion and
// reintegration.
func TestResetReproducesFreshWithDetector(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%9) + 0.125
	}
	cfg := sim.DetectorConfig{Detect: detect.Config{Timeout: 12}}
	plan := fault.NewPlan(fault.LinkOutage(20, 60, 0, 1)...)
	run := func(e *sim.Engine) sim.Result {
		return e.Run(sim.RunConfig{MaxRounds: 150, Record: true, OnRound: plan.OnRound})
	}
	mk := func() gossip.Protocol { return core.NewEfficient() }

	fresh := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 5, sim.WithDetector(cfg))
	resFresh := run(fresh)

	reused := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 77, sim.WithDetector(cfg))
	reused.Run(sim.RunConfig{MaxRounds: 40, OnRound: plan.OnRound})
	reused.Reset(5)
	resReused := run(reused)

	sameSeries(t, "pcf+detector", resFresh.Series, resReused.Series)
	sameEstimates(t, "pcf+detector", fresh.Estimates(), reused.Estimates())
	if fresh.DetectorStats() != reused.DetectorStats() {
		t.Fatalf("detector stats diverge: %+v vs %+v", fresh.DetectorStats(), reused.DetectorStats())
	}
}
