package pushflow

import (
	"math"
	"strings"
	"testing"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// push returns p's message to target, filled into a fresh message.
func push(p *Node, target int) gossip.Message {
	var m gossip.Message
	p.FillMessage(target, &m)
	return m
}

// localValue returns p's current local mass.
func localValue(p gossip.Protocol) gossip.Value {
	var v gossip.Value
	p.LocalValueInto(&v)
	return v
}

func protos(n int) []gossip.Protocol {
	out := make([]gossip.Protocol, n)
	for i := range out {
		out[i] = New()
	}
	return out
}

func TestVirtualThenPhysicalSend(t *testing.T) {
	n := New()
	n.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	msg := push(n, 1)
	// Virtual send: f(0,1) = e/2 = (4, 0.5); the message carries it.
	if msg.Flow1.X[0] != 4 || msg.Flow1.W != 0.5 {
		t.Fatalf("message flow = %v", msg.Flow1)
	}
	// Local mass after the virtual send is halved.
	lv := localValue(n)
	if lv.X[0] != 4 || lv.W != 0.5 {
		t.Fatalf("local value = %v", lv)
	}
	// The message must not alias internal state.
	msg.Flow1.X[0] = 999
	if n.Flow(1).X[0] != 4 {
		t.Fatal("MakeMessage aliased the flow variable")
	}
}

func TestReceiveNegates(t *testing.T) {
	a, b := New(), New()
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	b.Reset(1, []int32{0}, gossip.Scalar(0, 1))
	msg := push(a, 1)
	b.Receive(msg)
	// Flow conservation: f(1,0) = −f(0,1).
	if got := b.Flow(0); !got.Equal(a.Flow(1).Neg()) {
		t.Fatalf("f(1,0) = %v, want negation of %v", got, a.Flow(1))
	}
	// Mass moved: b now holds its own mass plus the transfer.
	lv := localValue(b)
	if lv.X[0] != 4 || lv.W != 1.5 {
		t.Fatalf("receiver local value = %v", lv)
	}
}

// Idempotence: processing the same message twice leaves the same state —
// the core of PF's tolerance to duplication.
func TestReceiveIdempotent(t *testing.T) {
	a, b := New(), New()
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	b.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	msg := push(a, 1)
	b.Receive(msg)
	before := localValue(b)
	b.Receive(msg)
	b.Receive(msg)
	if !localValue(b).Equal(before) {
		t.Fatal("duplicate delivery changed state")
	}
}

func TestReceiveScreensCorruption(t *testing.T) {
	b := New()
	b.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	before := localValue(b)
	// NaN payload must be discarded.
	b.Receive(gossip.Message{From: 0, To: 1, Flow1: gossip.Scalar(math.NaN(), 1)})
	if !localValue(b).Equal(before) {
		t.Fatal("NaN payload accepted")
	}
	// Unknown sender ignored.
	b.Receive(gossip.Message{From: 9, To: 1, Flow1: gossip.Scalar(1, 1)})
	if !localValue(b).Equal(before) {
		t.Fatal("unknown sender accepted")
	}
	// Wrong width ignored.
	b.Receive(gossip.Message{From: 0, To: 1, Flow1: gossip.NewValue(3)})
	if !localValue(b).Equal(before) {
		t.Fatal("wrong width accepted")
	}
}

func TestOnLinkFailureReclaimsFlow(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1, 2}, gossip.Scalar(8, 1))
	push(a, 1) // f(0,1) = (4, 0.5)
	if localValue(a).X[0] != 4 {
		t.Fatal("setup failed")
	}
	a.OnLinkFailure(1)
	// Zeroing the flow gives the mass back — the estimate jump that
	// causes PF's restart problem.
	if localValue(a).X[0] != 8 {
		t.Fatalf("local value after failure = %v, want full reclaim", localValue(a))
	}
	if got := a.LiveNeighbors(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("live neighbors = %v", got)
	}
	if !a.Flow(1).IsZero() {
		t.Fatal("failed link's flow not zeroed")
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1}, gossip.Scalar(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	push(a, 5)
}

func TestResetReusesInstance(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1, 2}, gossip.Scalar(5, 1))
	push(a, 1)
	a.OnLinkFailure(2)
	a.Reset(3, []int32{4}, gossip.Scalar(7, 1))
	if got := a.LiveNeighbors(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("live neighbors after Reset = %v", got)
	}
	if lv := localValue(a); lv.X[0] != 7 || lv.W != 1 {
		t.Fatalf("local value after Reset = %v", lv)
	}
	if !a.Flow(4).IsZero() {
		t.Fatal("flows must be zero after Reset")
	}
	// A repeat Reset over the same neighborhood zeroes in place.
	nb, init := []int32{4, 5}, gossip.Scalar(7, 1)
	a.Reset(3, nb, init)
	var msg gossip.Message
	if n := testing.AllocsPerRun(20, func() {
		a.FillMessage(4, &msg)
		a.Reset(3, nb, init)
	}); n != 0 {
		t.Fatalf("repeat Reset allocates %.0f times", n)
	}
}

// The paper's Fig. 2 bus example: converged estimates are the average
// (2) everywhere, and the weighted flow invariant fˣ − 2·fʷ on edge
// (i, i+1) equals n−i−1 (unique on a tree; see experiments.BusExample
// for the derivation).
func TestBusEquilibriumInvariant(t *testing.T) {
	const n = 8
	g := topology.Path(n)
	inputs := make([]float64, n)
	inputs[0] = n + 1
	for i := 1; i < n; i++ {
		inputs[i] = 1
	}
	ps := protos(n)
	e := sim.NewScalar(g, ps, inputs, gossip.Average, 42)
	res := e.Run(sim.RunConfig{MaxRounds: 5000, Eps: 1e-14})
	if !res.Converged {
		t.Fatalf("bus not converged: %.3e", e.MaxError())
	}
	e.Drain()
	for i := 0; i < n-1; i++ {
		f := ps[i].(*Node).Flow(i + 1)
		inv := f.X[0] - 2*f.W
		want := float64(n - i - 1)
		if math.Abs(inv-want) > 1e-10 {
			t.Fatalf("edge (%d,%d): invariant %.12g, want %g", i, i+1, inv, want)
		}
	}
}

// PF's flows on the bus grow linearly with n — the mechanism behind its
// accuracy degradation (paper Sec. II-B).
func TestBusFlowsGrowWithN(t *testing.T) {
	grow := func(n int) float64 {
		g := topology.Path(n)
		inputs := make([]float64, n)
		inputs[0] = float64(n + 1)
		for i := 1; i < n; i++ {
			inputs[i] = 1
		}
		ps := protos(n)
		e := sim.NewScalar(g, ps, inputs, gossip.Average, 1)
		e.Run(sim.RunConfig{MaxRounds: 800 * n, Eps: 1e-12})
		worst := 0.0
		for i := 0; i < n-1; i++ {
			if a := ps[i].(*Node).Flow(i + 1).MaxAbs(); a > worst {
				worst = a
			}
		}
		return worst
	}
	small, large := grow(4), grow(16)
	if large < 2*small {
		t.Fatalf("flows did not grow with n: %g → %g", small, large)
	}
}

// Convergence on assorted topologies and aggregates.
func TestConvergesEverywhere(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Ring(16),
		topology.Hypercube(5),
		topology.Torus3D(2, 2, 4),
		topology.Complete(9),
		topology.BinaryTree(15),
		topology.Star(10),
	}
	for _, g := range graphs {
		for _, agg := range []gossip.Aggregate{gossip.Sum, gossip.Average} {
			n := g.N()
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(3*i%7) + 0.5
			}
			e := sim.NewScalar(g, protos(n), inputs, agg, 13)
			res := e.Run(sim.RunConfig{MaxRounds: 30000, Eps: 1e-11})
			if !res.Converged {
				t.Errorf("%s/%s: not converged (%.3e after %d rounds)",
					g.Name(), agg, e.MaxError(), res.Rounds)
			}
		}
	}
}

// A single lost message must not prevent convergence (paper Sec. II-A):
// the next successful exchange on the edge repairs the flow.
func TestHealsMessageLoss(t *testing.T) {
	g := topology.Hypercube(4)
	e := sim.NewScalar(g, protos(16), someInputs(16), gossip.Average, 21)
	dropped := 0
	e.SetInterceptor(sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		if round < 30 && msg.From == 3 { // drop everything node 3 sends early on
			dropped++
			return false
		}
		return true
	}))
	res := e.Run(sim.RunConfig{MaxRounds: 5000, Eps: 1e-12})
	if dropped == 0 {
		t.Fatal("no messages dropped — test is vacuous")
	}
	if !res.Converged {
		t.Fatalf("did not heal %d lost messages: %.3e", dropped, e.MaxError())
	}
}

func someInputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%11) + 0.125
	}
	return out
}

// SetInput rejects a width change at the call, and the rejected call
// leaves the estimate as it was.
func TestSetInputWidthPanics(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	a.SetInput(gossip.Scalar(5, 1))
	if got := a.EstimateInto(nil)[0]; got != 5 {
		t.Fatalf("estimate after SetInput %g, want 5", got)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "pushflow: SetInput with width 2 on a node of width 1") {
				t.Errorf("SetInput width change: panic %q", msg)
			}
		}()
		a.SetInput(gossip.Vector([]float64{1, 2}, 1))
	}()
	if got := a.EstimateInto(nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("rejected SetInput changed the estimate to %v", got)
	}
}
