// Package dmgs implements the fully distributed QR factorization of the
// paper's Section IV: a modified Gram-Schmidt process (dmGS, introduced
// by Straková, Gansterer and Zemen, PPAM 2011) in which every vector norm
// and dot product is computed by a gossip-based distributed reduction
// instead of a global collective.
//
// The input matrix V ∈ R^{n×m} (n ≥ N) is distributed row-wise over the
// N nodes of a topology. For each column k, the nodes first reduce the
// squared norm of the current column k (one scalar reduction), normalize
// their local rows with their own local estimate of the result, then
// reduce all inner products r(k,j), j > k, in a single vector-valued
// reduction and update their local rows. Every node therefore ends with
// its own copy of R — copies that agree only up to the accuracy the
// reduction algorithm achieved, which is exactly how reduction-level
// inaccuracy propagates to the matrix level (paper Fig. 8).
//
// The reduction algorithm is pluggable (push-sum, PF, PCF, …); dmGS uses
// it as a black box, which is the paper's architectural point: fault
// tolerance and accuracy achieved at the reduction level translate
// directly to the higher-level operation.
//
// # Batched mode
//
// The classic schedule issues 2m−1 reductions (per column: one scalar
// norm, then one vector of inner products against the normalized
// column). Since every reduction's fixed per-round cost (scheduling,
// messaging, convergence detection) dominates for small widths, Batched
// mode fuses each column's two reductions into ONE width-(m−k)
// reduction over the un-normalized column: component 0 carries Σ v²rk
// and component j−k carries Σ vrk·vrj, from which every node derives
// r(k,k) = √est₀ and r(k,j) = est_{j−k}/r(k,k). The identities are
// exact in exact arithmetic — both schedules compute the same R — and
// under gossip both are approximations of the same order, so batching
// halves the reduction count (m instead of 2m−1) without an accuracy
// regression. Both modes reuse one simulation engine across all
// reductions (sim.Engine.ResetWithInputs), which keeps the graph,
// protocol arrays and message pools allocated.
package dmgs

import (
	"fmt"
	"math"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// Config parameterizes a distributed factorization.
type Config struct {
	// Topology is the network the nodes gossip on.
	Topology *topology.Graph
	// NewProtocol constructs one reduction-protocol instance; it is
	// called once per node and the instances are reused (Reset) across
	// all reductions of the factorization.
	NewProtocol func() gossip.Protocol
	// Eps is the per-reduction target accuracy (the paper uses 10⁻¹⁵):
	// a reduction stops once the oracle maximal relative local error is
	// ≤ Eps.
	Eps float64
	// MaxRounds caps each reduction ("a maximal number of iterations
	// per reduction was set to terminate reductions which did not
	// achieve this target accuracy", Sec. IV).
	MaxRounds int
	// StallRounds, when > 0, additionally terminates a reduction whose
	// maximal error has not improved for this many consecutive rounds —
	// reductions that cannot reach Eps (PF at scale) have hit their
	// accuracy floor long before MaxRounds.
	StallRounds int
	// Seed drives all communication schedules; reduction t of the
	// factorization uses Seed+t.
	Seed int64
	// Batched fuses each column's norm and inner-product reductions
	// into a single width-(m−k) reduction (see the package comment),
	// issuing m reductions instead of 2m−1. Off by default: the classic
	// schedule is the paper's and the golden baselines'.
	Batched bool
	// Engine, when non-nil, appends extra engine options (sharding,
	// serial delivery, …) to every reduction engine.
	Engine []sim.EngineOption
	// Interceptor, when non-nil, returns a fresh fault injector for
	// each reduction engine (message loss, bit flips, …).
	Interceptor func() sim.Interceptor
	// OnReduction, when non-nil, is invoked after each reduction with
	// its index and result — a hook for instrumentation.
	OnReduction func(index int, res sim.Result)
}

// Result holds the outcome of a distributed factorization.
type Result struct {
	// Q is the orthonormal factor, assembled from the node-local row
	// blocks (n×m).
	Q *linalg.Matrix
	// R is node 0's copy of the triangular factor (m×m).
	R *linalg.Matrix
	// RDisagreement is the maximum over nodes of ‖R_node − R_0‖∞ — how
	// far the per-node copies of R drifted apart due to reduction
	// inaccuracy. Exactly zero only if every reduction were exact.
	RDisagreement float64
	// Reductions is the number of gossip reductions performed: 2m−1 in
	// the classic schedule, m in Batched mode.
	Reductions int
	// TotalRounds is the number of gossip rounds summed over all
	// reductions.
	TotalRounds int
	// ConvergedReductions counts reductions that met Eps before
	// MaxRounds.
	ConvergedReductions int
}

// Factorize runs dmGS on v over the configured topology and reduction
// algorithm and returns the assembled factors.
func Factorize(v *linalg.Matrix, cfg Config) (Result, error) {
	g := cfg.Topology
	if g == nil {
		return Result{}, fmt.Errorf("dmgs: nil topology")
	}
	bigN := g.N()
	n, m := v.Rows, v.Cols
	if n < m {
		return Result{}, fmt.Errorf("dmgs: need rows >= cols, got %dx%d", n, m)
	}
	if n < bigN {
		return Result{}, fmt.Errorf("dmgs: need at least one row per node, got %d rows for %d nodes", n, bigN)
	}
	if cfg.NewProtocol == nil {
		return Result{}, fmt.Errorf("dmgs: nil protocol constructor")
	}
	if cfg.Eps <= 0 || cfg.MaxRounds <= 0 {
		return Result{}, fmt.Errorf("dmgs: Eps and MaxRounds must be positive")
	}

	// Row-block distribution: node i holds rows [lo(i), lo(i+1)).
	lo := func(i int) int { return i * n / bigN }

	// Node-local working copies of the row blocks and R.
	work := v.Clone() // columns k..m-1 are progressively orthogonalized in place
	rs := make([]*linalg.Matrix, bigN)
	for i := range rs {
		rs[i] = linalg.NewMatrix(m, m)
	}

	protos := make([]gossip.Protocol, bigN)
	for i := range protos {
		protos[i] = cfg.NewProtocol()
	}

	res := Result{}
	// reduce runs one distributed SUM over per-node partial vectors and
	// returns each node's local estimate of the sums. One engine serves
	// the whole factorization: reduction t rewinds it with seed Seed+t
	// and the new partials (bit-identical to constructing a fresh engine
	// — the ResetWithInputs contract — without re-allocating the graph
	// bookkeeping and message pools between the 2m−1 or m reductions).
	var eng *sim.Engine
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	reduce := func(partials []gossip.Value) [][]float64 {
		seed := cfg.Seed + int64(res.Reductions)
		if eng == nil {
			// Vector-scale errors: the convergence criterion for a batch
			// of dot products is their error relative to the batch's
			// scale, not per-component relative error (a dot product of
			// two nearly orthogonal columns is incidentally ~0 and would
			// otherwise never satisfy any relative target).
			opts := append([]sim.EngineOption{sim.WithVectorScaleErrors()}, cfg.Engine...)
			eng = sim.New(g, protos, partials, seed, opts...)
		} else {
			eng.ResetWithInputs(seed, partials)
		}
		if cfg.Interceptor != nil {
			eng.SetInterceptor(cfg.Interceptor())
		}
		r := eng.Run(sim.RunConfig{MaxRounds: cfg.MaxRounds, Eps: cfg.Eps, StallRounds: cfg.StallRounds})
		res.Reductions++
		res.TotalRounds += r.Rounds
		if r.Converged {
			res.ConvergedReductions++
		}
		if cfg.OnReduction != nil {
			cfg.OnReduction(res.Reductions-1, r)
		}
		return eng.Estimates()
	}

	partials := make([]gossip.Value, bigN)
	for k := 0; k < m; k++ {
		if cfg.Batched {
			// One fused reduction of width m−k over the UN-normalized
			// column: component 0 is Σ v²rk, component j−k is Σ vrk·vrj.
			width := m - k
			for i := 0; i < bigN; i++ {
				sums := make([]stats.Sum2, width)
				for row := lo(i); row < lo(i+1); row++ {
					vik := work.At(row, k)
					sums[0].Add(vik * vik)
					for j := k + 1; j < m; j++ {
						sums[j-k].Add(vik * work.At(row, j))
					}
				}
				xs := make([]float64, width)
				for t := range sums {
					xs[t] = sums[t].Value()
				}
				partials[i] = gossip.Value{X: xs, W: gossip.Sum.InitialWeight(i)}
			}
			est := reduce(partials)
			for i := 0; i < bigN; i++ {
				rkk := math.Sqrt(est[i][0])
				if rkk == 0 || math.IsNaN(rkk) {
					return Result{}, fmt.Errorf("dmgs: breakdown at column %d on node %d (pivot %g)", k, i, rkk)
				}
				rs[i].Set(k, k, rkk)
				for j := k + 1; j < m; j++ {
					rs[i].Set(k, j, est[i][j-k]/rkk)
				}
				// Normalize the local rows of column k and apply the
				// projections — r(k,j)·q_k ≡ (est_{j−k}/rkk)·(v_k/rkk),
				// the same update the classic schedule applies.
				for row := lo(i); row < lo(i+1); row++ {
					qik := work.At(row, k) / rkk
					work.Set(row, k, qik)
					for j := k + 1; j < m; j++ {
						work.Set(row, j, work.At(row, j)-rs[i].At(k, j)*qik)
					}
				}
			}
			continue
		}

		// Reduction 1: squared norm of column k.
		for i := 0; i < bigN; i++ {
			var s stats.Sum2
			for row := lo(i); row < lo(i+1); row++ {
				x := work.At(row, k)
				s.Add(x * x)
			}
			partials[i] = gossip.Scalar(s.Value(), gossip.Sum.InitialWeight(i))
		}
		norms := reduce(partials)
		// Each node normalizes its rows with its own estimate of r(k,k).
		for i := 0; i < bigN; i++ {
			rkk := math.Sqrt(norms[i][0])
			if rkk == 0 || math.IsNaN(rkk) {
				return Result{}, fmt.Errorf("dmgs: breakdown at column %d on node %d (pivot %g)", k, i, rkk)
			}
			rs[i].Set(k, k, rkk)
			for row := lo(i); row < lo(i+1); row++ {
				work.Set(row, k, work.At(row, k)/rkk)
			}
		}

		if k == m-1 {
			break
		}
		// Reduction 2: all inner products r(k,j) for j > k in one
		// vector-valued reduction of width m−k−1.
		width := m - k - 1
		for i := 0; i < bigN; i++ {
			sums := make([]stats.Sum2, width)
			for row := lo(i); row < lo(i+1); row++ {
				qik := work.At(row, k)
				for j := k + 1; j < m; j++ {
					sums[j-k-1].Add(qik * work.At(row, j))
				}
			}
			xs := make([]float64, width)
			for t := range sums {
				xs[t] = sums[t].Value()
			}
			partials[i] = gossip.Value{X: xs, W: gossip.Sum.InitialWeight(i)}
		}
		dots := reduce(partials)
		for i := 0; i < bigN; i++ {
			for j := k + 1; j < m; j++ {
				rkj := dots[i][j-k-1]
				rs[i].Set(k, j, rkj)
				for row := lo(i); row < lo(i+1); row++ {
					work.Set(row, j, work.At(row, j)-rkj*work.At(row, k))
				}
			}
		}
	}

	res.Q = work
	res.R = rs[0]
	for i := 1; i < bigN; i++ {
		if d := rs[i].Sub(rs[0]).NormInf(); d > res.RDisagreement {
			res.RDisagreement = d
		}
	}
	return res, nil
}
