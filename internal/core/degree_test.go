package core

import (
	"math"
	"testing"

	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// flowProtocols are the protocols whose sender lookup scans the
// neighbor list up to 32 neighbors (denseScanMax, the same limit in
// pushflow and flowupdate) and uses an id map above it.
var flowProtocols = []struct {
	name string
	mk   func() gossip.Protocol
}{
	{"PCF-efficient", func() gossip.Protocol { return NewEfficient() }},
	{"PCF-robust", func() gossip.Protocol { return NewRobust() }},
	{"PF", func() gossip.Protocol { return pushflow.New() }},
	{"FU", func() gossip.Protocol { return flowupdate.New() }},
}

func highDegreeInputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%11) + 0.25
	}
	return out
}

// A reduction on Complete(40) puts every node above denseScanMax, so
// every sender lookup goes through the id map. A permanent link failure
// mid-run must leave the mass exactly accounted for, and the reduction
// must still converge. (FU averages slowly on dense graphs: it needs
// about 28,000 rounds here, the others under a hundred.)
func TestHighDegreeLinkFailure(t *testing.T) {
	g := topology.Complete(40)
	n := g.N()
	inputs := highDegreeInputs(n)
	want := 0.0
	for _, x := range inputs {
		want += x
	}
	for _, p := range flowProtocols {
		ps := make([]gossip.Protocol, n)
		for i := range ps {
			ps[i] = p.mk()
		}
		e := sim.NewScalar(g, ps, inputs, gossip.Average, 9)
		for r := 0; r < 12; r++ {
			e.Step()
		}
		e.FailLink(3, 17)
		res := e.Run(sim.RunConfig{MaxRounds: 50000, Eps: 1e-10})
		if !res.Converged {
			t.Errorf("%s: not converged after %d rounds (%.3e)", p.name, res.Rounds, e.MaxError())
		}
		e.Drain()
		if got := e.GlobalMass(); math.Abs(got.X[0]-want) > 1e-9 || math.Abs(got.W-float64(n)) > 1e-9 {
			t.Errorf("%s: global mass %v, want (%g, %d)", p.name, got, want, n)
		}
	}
}

// A hub Reset with denseScanMax neighbors and then grown past the limit
// by OnNeighborJoin (the join that crosses the limit builds the id map,
// the later ones extend it) must resolve every edge, old and new: a
// ping-pong with each leaf in turn converges everywhere with the mass
// conserved.
func TestNeighborJoinPastScanLimit(t *testing.T) {
	const joined = 8
	deg := denseScanMax + joined
	inputs := highDegreeInputs(deg + 1)
	want := 0.0
	for _, x := range inputs {
		want += x
	}
	avg := want / float64(deg+1)
	for _, p := range flowProtocols {
		nodes := make([]gossip.Protocol, deg+1)
		for i := range nodes {
			nodes[i] = p.mk()
		}
		initial := make([]int32, denseScanMax)
		for k := range initial {
			initial[k] = int32(k + 1)
		}
		nodes[0].Reset(0, initial, gossip.Scalar(inputs[0], 1))
		for j := 1; j <= deg; j++ {
			if j <= denseScanMax {
				nodes[j].Reset(j, []int32{0}, gossip.Scalar(inputs[j], 1))
				continue
			}
			nodes[j].Reset(j, nil, gossip.Scalar(inputs[j], 1))
			nodes[j].OnNeighborJoin(0)
			nodes[0].OnNeighborJoin(j)
		}
		if got := len(nodes[0].LiveNeighbors()); got != deg {
			t.Fatalf("%s: hub has %d live neighbors, want %d", p.name, got, deg)
		}
		var msg gossip.Message
		for r := 0; r < 400; r++ {
			for j := 1; j <= deg; j++ {
				nodes[0].FillMessage(j, &msg)
				if msg.To != j {
					t.Fatalf("%s: message for %d addressed to %d", p.name, j, msg.To)
				}
				nodes[j].Receive(msg)
				nodes[j].FillMessage(0, &msg)
				nodes[0].Receive(msg)
			}
		}
		mass := 0.0
		for i, nd := range nodes {
			var v gossip.Value
			nd.LocalValueInto(&v)
			mass += v.X[0]
			if est := nd.EstimateInto(nil)[0]; math.Abs(est-avg) > 1e-9 {
				t.Errorf("%s: node %d estimate %.12f, want %.12f", p.name, i, est, avg)
			}
		}
		if math.Abs(mass-want) > 1e-9 {
			t.Errorf("%s: mass %.15g, want %.15g", p.name, mass, want)
		}
	}
}
