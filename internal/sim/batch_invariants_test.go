package sim_test

// Property tests for the batched (width-k) reduction path: the paper's
// conservation and anti-symmetry invariants must hold PER COMPONENT at
// every batch width, and each component of a batched run must be
// bitwise equal to the scalar run of that component — the schedule is
// width-independent and every protocol acts component-wise, so batching
// k values into one run may never change any of their numerics.

import (
	"fmt"
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

var batchWidths = []int{1, 2, 4, 16}

// batchInputs builds n width-k vectors with distinct, irregular
// per-component values (no component is a scalar multiple of another).
func batchInputs(n, k int) []gossip.Value {
	init := make([]gossip.Value, n)
	for i := range init {
		v := gossip.NewValue(k)
		for c := 0; c < k; c++ {
			v.X[c] = float64((i*(2*c+3))%17) + 0.5/float64(c+1)
		}
		v.W = gossip.Average.InitialWeight(i)
		init[i] = v
	}
	return init
}

// TestBatchedMassConservation: after Drain, the global mass of every
// component equals its initial sum — the Sec. II-A invariant holds for
// each of the k values independently, at every width.
func TestBatchedMassConservation(t *testing.T) {
	g := topology.Torus2D(4, 4)
	n := g.N()
	for _, tc := range allProtocols {
		for _, k := range batchWidths {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				init := batchInputs(n, k)
				want := make([]float64, k)
				for _, v := range init {
					for c, x := range v.X {
						want[c] += x
					}
				}
				e := sim.New(g, fuzzProtos(n, tc.mk), init, 5)
				for step := 0; step < 6; step++ {
					for r := 0; r < 11; r++ {
						e.Step()
					}
					e.Drain()
					mass := e.GlobalMass()
					for c := 0; c < k; c++ {
						if math.Abs(mass.X[c]-want[c]) > 1e-9*math.Max(1, math.Abs(want[c])) {
							t.Fatalf("round %d component %d: mass %.15g, want %.15g",
								e.Round(), c, mass.X[c], want[c])
						}
					}
					if math.Abs(mass.W-float64(n)) > 1e-9*float64(n) {
						t.Fatalf("round %d: weight mass %.15g, want %d", e.Round(), mass.W, n)
					}
				}
			})
		}
	}
}

// TestBatchedAntiSymmetry: at quiescence the flow anti-symmetry
// invariant f(j,i) = −f(i,j) holds bitwise for the flow protocols at
// every batch width (the per-edge flow state is itself width-k).
func TestBatchedAntiSymmetry(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	for name, mk := range map[string]func() gossip.Protocol{
		"pcf": func() gossip.Protocol { return core.NewEfficient() },
		"pf":  func() gossip.Protocol { return pushflow.New() },
	} {
		for _, k := range batchWidths {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				rec := metrics.New(metrics.Config{Interval: 1})
				e := sim.New(g, fuzzProtos(n, mk), batchInputs(n, k), 3)
				e.SetMetrics(rec)
				e.Run(sim.RunConfig{MaxRounds: 60})
				e.Drain()
				e.Observe()
				s, ok := rec.Last()
				if !ok {
					t.Fatal("no sample")
				}
				if s.AntiSym != 0 {
					t.Fatalf("%d anti-symmetry violations after Drain, want 0", s.AntiSym)
				}
			})
		}
	}
}

// TestBatchedComponentEqualsScalar: after any fixed number of rounds,
// component c of a width-k run is bitwise identical to a scalar run
// over component c with the same seed — on the legacy executor and on
// the sharded one, split into 3 shards of unequal size (31 nodes).
func TestBatchedComponentEqualsScalar(t *testing.T) {
	g := topology.BinaryTree(31)
	n := g.N()
	const rounds = 150
	layouts := []struct {
		name string
		opts []sim.EngineOption
	}{
		{"legacy", nil},
		{"sharded", []sim.EngineOption{sim.WithShards(3)}},
	}
	for _, tc := range allProtocols {
		for _, layout := range layouts {
			for _, k := range []int{2, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", tc.name, layout.name, k), func(t *testing.T) {
					init := batchInputs(n, k)
					batch := sim.New(g, fuzzProtos(n, tc.mk), init, 9, layout.opts...)
					for r := 0; r < rounds; r++ {
						batch.Step()
					}
					for c := 0; c < k; c++ {
						scalarInit := make([]gossip.Value, n)
						for i := range scalarInit {
							scalarInit[i] = gossip.Scalar(init[i].X[c], init[i].W)
						}
						ref := sim.New(g, fuzzProtos(n, tc.mk), scalarInit, 9, layout.opts...)
						for r := 0; r < rounds; r++ {
							ref.Step()
						}
						for i := 0; i < n; i++ {
							b := batch.Protocol(i).EstimateInto(nil)
							s := ref.Protocol(i).EstimateInto(nil)
							if b[c] != s[0] {
								t.Fatalf("node %d component %d: batched %.17g, scalar %.17g", i, c, b[c], s[0])
							}
						}
						ref.Close()
					}
					batch.Close()
				})
			}
		}
	}
}
