package pcfreduce

import (
	"errors"
	"fmt"
	"math"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
)

// Session is a stateful, incrementally driven reduction: step the gossip
// forward, update inputs while it runs (live monitoring), and inject
// failures interactively. Reduce is the one-shot convenience wrapper;
// Session is for long-lived aggregations whose inputs keep changing —
// the use case of continuously monitoring a drifting quantity.
//
// Sessions are not safe for concurrent use.
type Session struct {
	engine  *sim.Engine
	agg     Aggregate
	inputs  []float64
	lossICs *fault.Loss
}

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Topology is the gossip network (required, connected).
	Topology *Graph
	// Aggregate selects Sum or Average (default Average).
	Aggregate Aggregate
	// Seed makes the schedule reproducible (default 1).
	Seed int64
	// LossRate, when > 0, drops each message independently with this
	// probability for the whole session.
	LossRate float64
}

// NewSession builds a session with the given per-node inputs.
func NewSession(inputs []float64, algo Algorithm, opt SessionOptions) (*Session, error) {
	if opt.Topology == nil {
		return nil, errors.New("pcfreduce: SessionOptions.Topology is required")
	}
	n := opt.Topology.N()
	if len(inputs) != n {
		return nil, fmt.Errorf("pcfreduce: %d inputs for %d nodes", len(inputs), n)
	}
	if !opt.Topology.IsConnected() {
		return nil, errors.New("pcfreduce: topology must be connected")
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = algo.NewNode()
	}
	e := sim.NewScalar(opt.Topology, protos, inputs, opt.Aggregate, opt.Seed)
	s := &Session{
		engine: e,
		agg:    opt.Aggregate,
		inputs: append([]float64(nil), inputs...),
	}
	if opt.LossRate > 0 {
		s.lossICs = fault.NewLoss(opt.LossRate, opt.Seed+1)
		e.SetInterceptor(s.lossICs)
	}
	return s, nil
}

// Step advances the gossip by the given number of rounds.
func (s *Session) Step(rounds int) {
	for r := 0; r < rounds; r++ {
		s.engine.Step()
	}
}

// StepUntil advances until the maximal relative local error is ≤ eps or
// maxRounds more rounds have run; it reports whether eps was reached.
func (s *Session) StepUntil(eps float64, maxRounds int) bool {
	res := s.engine.Run(sim.RunConfig{MaxRounds: maxRounds, Eps: eps})
	return res.Converged
}

// UpdateInput changes node i's input value mid-run. The network
// re-converges to the new aggregate; the exact target (Exact) moves
// immediately.
func (s *Session) UpdateInput(node int, value float64) {
	s.inputs[node] = value
	s.engine.UpdateInput(node, gossip.Scalar(value, s.agg.InitialWeight(node)))
}

// FailLink permanently fails the link between a and b (quiescent model:
// in-flight messages are delivered first).
func (s *Session) FailLink(a, b int) { s.engine.FailLink(a, b) }

// CrashNode permanently removes a node; Exact becomes the survivors'
// aggregate.
func (s *Session) CrashNode(node int) { s.engine.CrashNode(node) }

// Estimates returns every node's current estimate (NaN for crashed
// nodes).
func (s *Session) Estimates() []float64 {
	out := make([]float64, 0, s.engine.N())
	for _, est := range s.engine.Estimates() {
		if est == nil {
			out = append(out, math.NaN())
			continue
		}
		out = append(out, est[0])
	}
	return out
}

// Exact returns the current true aggregate (it moves when inputs change
// or nodes crash).
func (s *Session) Exact() float64 { return s.engine.Targets()[0] }

// MaxError returns the current maximal relative local error.
func (s *Session) MaxError() float64 { return s.engine.MaxError() }

// Rounds returns the number of rounds executed so far.
func (s *Session) Rounds() int { return s.engine.Round() }
