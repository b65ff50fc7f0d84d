// Package pcfreduce is a fault-tolerant distributed reduction library: a
// from-scratch Go implementation of the push-cancel-flow (PCF) algorithm
// of Niederbrucker, Straková and Gansterer ("Improving Fault Tolerance
// and Accuracy of a Distributed Reduction Algorithm", SC 2012), together
// with the gossip algorithms it builds on and competes with (push-sum,
// push-flow, flow-updating), a deterministic round simulator, a
// concurrent goroutine runtime, fault injection, and a fully distributed
// QR factorization (dmGS) built on top of the reductions.
//
// # Quick start
//
//	g := pcfreduce.Hypercube(6)                    // 64 nodes
//	res, err := pcfreduce.Reduce(inputs, pcfreduce.PCF, pcfreduce.ReduceOptions{
//		Topology:  g,
//		Aggregate: pcfreduce.Average,
//		Eps:       1e-15,
//	})
//	// res.Estimates[i] is node i's estimate of the global average.
//
// # Choosing an algorithm
//
//   - PCF (default choice): reaches machine precision at any scale and
//     recovers from permanent link/node failures without convergence
//     fall-back. Use PCFRobust when in-flight payload corruption (bit
//     flips) must be tolerated with minimal disturbance.
//   - PushFlow: the predecessor algorithm; same failure model, but its
//     accuracy degrades with system size and failure handling restarts
//     convergence.
//   - PushSum: fastest and simplest, but any lost message permanently
//     corrupts the result; only for reliable transports.
//   - FlowUpdating: an alternative flow-based method (Jesus et al.),
//     averaging-style dynamics.
//
// The deeper API — protocol state machines, the round engine, fault
// injectors, the concurrent runtime, and the experiment harnesses that
// regenerate every figure of the paper — lives in the internal packages
// and is exercised by the binaries in cmd/ and the examples in
// examples/.
package pcfreduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/eigen"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/runtime"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Graph is a network topology (re-exported from the topology package).
type Graph = topology.Graph

// Convenient topology constructors.
var (
	// Hypercube returns the d-dimensional hypercube on 2^d nodes.
	Hypercube = topology.Hypercube
	// Torus3D returns an a×b×c torus.
	Torus3D = topology.Torus3D
	// Torus2D returns an a×b torus.
	Torus2D = topology.Torus2D
	// Path returns the n-node bus/line network.
	Path = topology.Path
	// Ring returns the n-node cycle.
	Ring = topology.Ring
	// Complete returns the fully connected n-node graph.
	Complete = topology.Complete
	// Grid2D returns a rows×cols mesh.
	Grid2D = topology.Grid2D
	// RandomRegular returns a seeded random d-regular graph.
	RandomRegular = topology.RandomRegular
	// WattsStrogatz returns a seeded small-world graph.
	WattsStrogatz = topology.WattsStrogatz
)

// Aggregate selects the reduction target.
type Aggregate = gossip.Aggregate

// Aggregate kinds.
const (
	// Sum computes Σ xᵢ.
	Sum = gossip.Sum
	// Average computes (Σ xᵢ)/n.
	Average = gossip.Average
)

// Protocol is the node-local reduction state machine: the full contract
// every engine drives (send, receive, estimate, failure and recovery,
// open membership, live input and checkpoint state). Advanced users can
// implement their own and drive it with the same engines.
type Protocol = gossip.Protocol

// MetricsRecorder is the zero-overhead observability recorder
// (re-exported from internal/metrics): per-shard counter banks, invariant
// probes sampled every K rounds, and a fixed-capacity trace-event ring.
// Attach one per run via ReduceOptions.Metrics or
// ConcurrentOptions.Metrics; a nil recorder costs nothing.
type MetricsRecorder = metrics.Recorder

// MetricsConfig configures NewMetrics.
type MetricsConfig = metrics.Config

// MetricsSample is one invariant-probe sample (error quantiles, mass
// residual, in-flight weight, anti-symmetry violations, counters).
type MetricsSample = metrics.Sample

// TraceEvent is one entry of the recorder's trace ring (fault injected,
// link evicted, node reintegrated, convergence epoch crossed, ...).
type TraceEvent = metrics.Event

// NewMetrics constructs a metrics recorder.
var NewMetrics = metrics.New

// Value is the (data vector, weight) pair all protocols exchange.
type Value = gossip.Value

// Algorithm identifies one of the built-in reduction algorithms.
type Algorithm int

// The built-in reduction algorithms.
const (
	// PCF is the push-cancel-flow algorithm (the paper's contribution)
	// in its computationally efficient form (paper Fig. 5).
	PCF Algorithm = iota
	// PCFRobust is push-cancel-flow in the bit-flip-tolerant form
	// (paper Sec. III-A).
	PCFRobust
	// PushFlow is the predecessor push-flow algorithm (paper Fig. 1).
	PushFlow
	// PushSum is the classic non-fault-tolerant gossip aggregation
	// (Kempe et al., FOCS 2003).
	PushSum
	// FlowUpdating is the Flow Updating algorithm (Jesus et al.,
	// DAIS 2009).
	FlowUpdating
)

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	switch a {
	case PCF:
		return "PCF"
	case PCFRobust:
		return "PCF-robust"
	case PushFlow:
		return "push-flow"
	case PushSum:
		return "push-sum"
	case FlowUpdating:
		return "flow-updating"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// NewNode constructs one protocol instance (one per network node).
func (a Algorithm) NewNode() Protocol {
	switch a {
	case PCF:
		return core.NewEfficient()
	case PCFRobust:
		return core.NewRobust()
	case PushFlow:
		return pushflow.New()
	case PushSum:
		return pushsum.New()
	case FlowUpdating:
		return flowupdate.New()
	default:
		panic("pcfreduce: unknown algorithm")
	}
}

// ReduceOptions configures Reduce.
type ReduceOptions struct {
	// Topology is the gossip network (required, connected).
	Topology *Graph
	// Aggregate selects Sum or Average (default Average).
	Aggregate Aggregate
	// Eps is the target maximal relative local error (default 1e-12).
	Eps float64
	// MaxRounds caps the computation (default 500·log2(n)+2000).
	MaxRounds int
	// Seed makes the randomized schedule reproducible (default 1).
	Seed int64
	// LossRate, when > 0, drops each message independently with this
	// probability (seeded). It must lie in [0, 1].
	LossRate float64
	// LinkFailures schedules permanent link failures: at the given
	// round (≥ 0) both endpoints are notified and stop using the link,
	// which must be an edge of Topology.
	LinkFailures []LinkFailure
	// NodeCrashes schedules permanent node failures: all the node's
	// links fail and it stops participating. The reported Exact value
	// and errors then refer to the aggregate over the survivors.
	NodeCrashes []NodeCrash
	// Trace, when non-nil, is called after every round with the 1-based
	// number of the completed round and the maximal relative local
	// error it ended with.
	Trace func(round int, maxErr float64)
	// Shards, when > 0, runs the reduction under the phase-split
	// schedule with that many worker shards. Results are byte-identical
	// for any Shards ≥ 1 (only wall-clock time changes), but that
	// deterministic schedule differs from the default sequential one,
	// so Shards=0 and Shards=1 runs are distinct reproducible
	// experiments.
	Shards int
	// Metrics, when non-nil, attaches the recorder for the run: invariant
	// samples every Metrics.Interval rounds, counters, and the fault /
	// detector event trace. Attaching a recorder never changes the
	// schedule or the results.
	Metrics *MetricsRecorder
}

// LinkFailure schedules a permanent link failure for Reduce.
type LinkFailure struct {
	// Round at which the failure strikes.
	Round int
	// A, B are the link endpoints.
	A, B int
}

// NodeCrash schedules a permanent node failure for Reduce.
type NodeCrash struct {
	// Round at which the node crashes.
	Round int
	// Node is the crashed node id.
	Node int
}

// ReduceResult reports a completed reduction.
type ReduceResult struct {
	// Estimates[i] is node i's estimate of the aggregate.
	Estimates []float64
	// Exact is the true aggregate (compensated summation oracle).
	Exact float64
	// Rounds is the number of gossip rounds executed.
	Rounds int
	// Converged reports whether Eps was reached before MaxRounds.
	Converged bool
	// MaxError is the final maximal relative local error.
	MaxError float64
}

// Reduce runs a gossip reduction of the per-node inputs over the given
// topology in the deterministic round simulator and returns every node's
// final estimate. len(inputs) must equal the topology's node count.
func Reduce(inputs []float64, algo Algorithm, opt ReduceOptions) (ReduceResult, error) {
	if err := opt.validate(len(inputs)); err != nil {
		return ReduceResult{}, err
	}
	init := make([]Value, len(inputs))
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, opt.Aggregate.InitialWeight(i))
	}
	return reduceScalar(init, algo, opt), nil
}

// validate rejects options the engine cannot run, before any engine is
// built: a missing or disconnected topology, an input count that does
// not match it, a negative shard count, a loss rate that is not a
// probability, and scheduled faults that name a node outside the
// topology, a link that is not one of its edges, or a negative round.
// Shared by Reduce, ReduceBatch and WeightedReduce.
func (opt *ReduceOptions) validate(inputs int) error {
	if opt.Topology == nil {
		return errors.New("pcfreduce: ReduceOptions.Topology is required")
	}
	n := opt.Topology.N()
	if inputs != n {
		return fmt.Errorf("pcfreduce: %d inputs for %d nodes", inputs, n)
	}
	if !opt.Topology.IsConnected() {
		return errors.New("pcfreduce: topology must be connected")
	}
	if opt.Shards < 0 {
		return fmt.Errorf("pcfreduce: ReduceOptions.Shards is %d, want ≥ 0", opt.Shards)
	}
	if !(opt.LossRate >= 0 && opt.LossRate <= 1) {
		return fmt.Errorf("pcfreduce: ReduceOptions.LossRate is %g, want a probability in [0, 1]", opt.LossRate)
	}
	for _, lf := range opt.LinkFailures {
		switch {
		case lf.Round < 0:
			return fmt.Errorf("pcfreduce: link failure (%d,%d) at round %d, want ≥ 0", lf.A, lf.B, lf.Round)
		case lf.A < 0 || lf.A >= n || lf.B < 0 || lf.B >= n:
			return fmt.Errorf("pcfreduce: link failure (%d,%d) names a node outside [0,%d)", lf.A, lf.B, n)
		case !opt.Topology.HasEdge(lf.A, lf.B):
			return fmt.Errorf("pcfreduce: link failure (%d,%d) is not an edge of the topology", lf.A, lf.B)
		}
	}
	for _, nc := range opt.NodeCrashes {
		switch {
		case nc.Round < 0:
			return fmt.Errorf("pcfreduce: crash of node %d at round %d, want ≥ 0", nc.Node, nc.Round)
		case nc.Node < 0 || nc.Node >= n:
			return fmt.Errorf("pcfreduce: crash of node %d, outside [0,%d)", nc.Node, n)
		}
	}
	return nil
}

// run is the engine setup and run shared by Reduce, ReduceBatch and
// WeightedReduce: one protocol instance per node starting from init, the
// loss interceptor, the metrics recorder and the scheduled link failures
// and node crashes, run to Eps or MaxRounds. opt must have passed
// validate.
func run(init []Value, algo Algorithm, opt ReduceOptions) (*sim.Engine, sim.Result) {
	applyReduceDefaults(&opt, len(init))
	protos := make([]Protocol, len(init))
	for i := range protos {
		protos[i] = algo.NewNode()
	}
	e := sim.New(opt.Topology, protos, init, opt.Seed, opt.engineOptions()...)
	if opt.LossRate > 0 {
		e.SetInterceptor(fault.NewLoss(opt.LossRate, opt.Seed+1))
	}
	if opt.Metrics != nil {
		e.SetMetrics(opt.Metrics)
	}
	plan := fault.NewPlan()
	for _, lf := range opt.LinkFailures {
		plan.Add(fault.LinkFailure(lf.Round, lf.A, lf.B))
	}
	for _, nc := range opt.NodeCrashes {
		plan.Add(fault.NodeCrash(nc.Round, nc.Node))
	}
	return e, e.Run(sim.RunConfig{
		MaxRounds:  opt.MaxRounds,
		Eps:        opt.Eps,
		OnRound:    plan.OnRound,
		AfterRound: opt.Trace,
	})
}

// reduceScalar runs a width-1 reduction and reports it; a crashed node
// has no estimate, so its slot holds NaN and indices still line up with
// node ids.
func reduceScalar(init []Value, algo Algorithm, opt ReduceOptions) ReduceResult {
	e, res := run(init, algo, opt)
	out := ReduceResult{
		Exact:     e.Targets()[0],
		Rounds:    res.Rounds,
		Converged: res.Converged,
		MaxError:  e.MaxError(),
	}
	for _, est := range e.Estimates() {
		x := math.NaN()
		if est != nil {
			x = est[0]
		}
		out.Estimates = append(out.Estimates, x)
	}
	return out
}

// engineOptions translates the sharding fields into engine options.
func (opt *ReduceOptions) engineOptions() []sim.EngineOption {
	if opt.Shards <= 0 {
		return nil
	}
	return []sim.EngineOption{sim.WithShards(opt.Shards)}
}

func applyReduceDefaults(opt *ReduceOptions, n int) {
	if opt.Eps == 0 {
		opt.Eps = 1e-12
	}
	if opt.MaxRounds == 0 {
		log2 := 0
		for 1<<uint(log2) < n {
			log2++
		}
		opt.MaxRounds = 500*log2 + 2000
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
}

// BatchResult reports a completed batched reduction of k aggregates.
type BatchResult struct {
	// Estimates[i][c] is node i's estimate of aggregate c.
	Estimates [][]float64
	// Exact[c] is the true value of aggregate c (compensated oracle).
	Exact []float64
	// Rounds is the number of gossip rounds executed.
	Rounds int
	// Converged reports whether Eps was reached before MaxRounds.
	Converged bool
	// MaxError is the final maximal relative local error over all
	// components.
	MaxError float64
}

// ReduceBatch reduces k aggregates in ONE gossip run: node i contributes
// inputs[i], a vector of k values, and every round's messages carry all
// k components, so the whole batch converges in the rounds one scalar
// reduction takes instead of k times that. All input vectors must share
// one width k ≥ 1. With k = 1 the run is bit-identical to Reduce on the
// corresponding scalars. Faults, sharding and metrics options apply
// exactly as in Reduce.
func ReduceBatch(inputs [][]float64, algo Algorithm, opt ReduceOptions) (BatchResult, error) {
	if err := opt.validate(len(inputs)); err != nil {
		return BatchResult{}, err
	}
	k := len(inputs[0])
	if k < 1 {
		return BatchResult{}, errors.New("pcfreduce: ReduceBatch needs width ≥ 1")
	}
	init := make([]Value, len(inputs))
	for i, v := range inputs {
		if len(v) != k {
			return BatchResult{}, fmt.Errorf("pcfreduce: input %d has width %d, want %d", i, len(v), k)
		}
		init[i] = Value{X: v, W: opt.Aggregate.InitialWeight(i)}
	}
	e, res := run(init, algo, opt)
	out := BatchResult{
		Exact:     append([]float64(nil), e.Targets()...),
		Rounds:    res.Rounds,
		Converged: res.Converged,
		MaxError:  e.MaxError(),
	}
	for _, est := range e.Estimates() {
		if est == nil {
			// Crashed node: report NaNs in its slot so indices still
			// line up with node ids.
			est = make([]float64, k)
			for c := range est {
				est[c] = math.NaN()
			}
		}
		out.Estimates = append(out.Estimates, est)
	}
	return out, nil
}

// ConcurrentOptions configures ReduceConcurrent.
type ConcurrentOptions struct {
	// Topology is the gossip network (required, connected).
	Topology *Graph
	// Aggregate selects Sum or Average (default Average).
	Aggregate Aggregate
	// Eps is the convergence target (default 1e-9).
	Eps float64
	// Timeout bounds the run wall-clock (default 10s).
	Timeout time.Duration
	// Seed drives the per-node RNGs (default 1).
	Seed int64
	// Metrics, when non-nil, attaches the recorder for the run: shared
	// atomic counters, wall-clock invariant samples at the monitor
	// cadence, and the fault / detector event trace.
	Metrics *MetricsRecorder
	// MetricsAddr, when non-empty, serves the recorder on an opt-in HTTP
	// endpoint (Prometheus text at /metrics, expvar at /debug/vars, pprof
	// at /debug/pprof/) for the duration of the run.
	MetricsAddr string
}

// ReduceConcurrent runs the reduction as a real concurrent system: one
// goroutine per node, bounded channel inboxes, no global synchronization.
// Messages lost to inbox back-pressure are healed by the flow algorithms
// (and permanently corrupt PushSum — by design, that is the trade-off
// the paper describes).
func ReduceConcurrent(ctx context.Context, inputs []float64, algo Algorithm, opt ConcurrentOptions) (ReduceResult, error) {
	if opt.Topology == nil {
		return ReduceResult{}, errors.New("pcfreduce: ConcurrentOptions.Topology is required")
	}
	n := opt.Topology.N()
	if len(inputs) != n {
		return ReduceResult{}, fmt.Errorf("pcfreduce: %d inputs for %d nodes", len(inputs), n)
	}
	if opt.Eps == 0 {
		opt.Eps = 1e-9
	}
	if opt.Timeout == 0 {
		opt.Timeout = 10 * time.Second
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	init := make([]Value, n)
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, opt.Aggregate.InitialWeight(i))
	}
	net, err := runtime.New(runtime.Config{
		Graph:       opt.Topology,
		NewProtocol: algo.NewNode,
		Init:        init,
		Seed:        opt.Seed,
		Metrics:     opt.Metrics,
		MetricsAddr: opt.MetricsAddr,
	})
	if err != nil {
		return ReduceResult{}, err
	}
	rres, err := net.Run(ctx, runtime.RunConfig{Eps: opt.Eps, Timeout: opt.Timeout, Stable: 3})
	if err != nil {
		return ReduceResult{}, err
	}
	out := ReduceResult{
		Exact:     net.Targets()[0],
		Converged: rres.Converged,
		MaxError:  rres.FinalMaxError,
	}
	for _, est := range net.Estimates() {
		out.Estimates = append(out.Estimates, est[0])
	}
	return out, nil
}

// Matrix is a dense row-major matrix (re-exported from linalg).
type Matrix = linalg.Matrix

// NewMatrix returns a zero matrix.
func NewMatrix(rows, cols int) *Matrix { return linalg.NewMatrix(rows, cols) }

// RandomMatrix returns a seeded random matrix with entries in [-1, 1).
func RandomMatrix(rows, cols int, seed int64) *Matrix { return linalg.Random(rows, cols, seed) }

// QROptions configures the distributed QR factorization.
type QROptions struct {
	// Topology is the gossip network the matrix rows are distributed
	// over (required; rows ≥ nodes).
	Topology *Graph
	// Eps is the per-reduction target accuracy (default 1e-15, the
	// paper's setting).
	Eps float64
	// MaxRounds caps each reduction (default 4000).
	MaxRounds int
	// Seed makes the factorization reproducible (default 1).
	Seed int64
	// Batched fuses each column's norm and inner-product reductions
	// into one vector-valued reduction, issuing m gossip reductions
	// instead of 2m−1 — roughly halving the total rounds at equal
	// accuracy.
	Batched bool
	// Shards configures the sharded executor for every reduction, as in
	// ReduceOptions.
	Shards int
}

// QRResult reports a distributed factorization V ≈ Q·R.
type QRResult struct {
	// Q is the column-orthonormal factor (rows distributed over nodes,
	// assembled here).
	Q *Matrix
	// R is node 0's copy of the triangular factor.
	R *Matrix
	// FactorizationError is ‖V − QR‖∞ / ‖V‖∞.
	FactorizationError float64
	// OrthogonalityError is ‖QᵀQ − I‖∞.
	OrthogonalityError float64
	// Reductions is the number of gossip reductions in the
	// factorization's schedule (2m−1, or m when Batched).
	Reductions int
	// TotalRounds counts every gossip round run, including those of an
	// attempt QR repeated with a longer stall cutoff.
	TotalRounds int
}

// qrStallRounds is the first stall cutoff QR gives each reduction, and
// qrSpike the factor above its best error at which a reduction's final
// error marks a stop inside a transient spike. A cutoff that fires at
// the floor leaves final/best below about 250 (PF and PCF, 128 and 256
// nodes); the spike that breaks the 1e-12 factorization error on the
// input of TestQRStallSpikeRegression leaves it at 3500.
const (
	qrStallRounds = 60
	qrSpike       = 1000
)

// QR computes the fully distributed QR factorization of v (dmGS, paper
// Sec. IV) using the given reduction algorithm for every norm and dot
// product.
//
// Each reduction runs until it meets Eps, hits MaxRounds, or has not
// improved its error for a stall cutoff of rounds — the usual stop,
// since Eps = 1e-15 sits at or below the accuracy floor. A reduction's
// error can spike by orders of magnitude for a while after it reached
// its floor; a cutoff that fires inside such a spike leaves the nodes'
// copies of R apart, and the factorization misses the 1e-12 it
// otherwise meets. So when any reduction ends more than qrSpike times
// above its best error, QR repeats the whole factorization with the
// cutoff doubled, until no reduction stops in a spike or the cutoff
// reaches MaxRounds.
func QR(v *Matrix, algo Algorithm, opt QROptions) (QRResult, error) {
	if opt.Topology == nil {
		return QRResult{}, errors.New("pcfreduce: QROptions.Topology is required")
	}
	if opt.Eps == 0 {
		opt.Eps = 1e-15
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 4000
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Shards < 0 {
		return QRResult{}, fmt.Errorf("pcfreduce: QROptions.Shards is %d, want ≥ 0", opt.Shards)
	}
	ropt := ReduceOptions{Topology: opt.Topology, Shards: opt.Shards}
	var spiked bool
	cfg := dmgs.Config{
		Topology:    opt.Topology,
		NewProtocol: algo.NewNode,
		Eps:         opt.Eps,
		MaxRounds:   opt.MaxRounds,
		Seed:        opt.Seed,
		Batched:     opt.Batched,
		Engine:      ropt.engineOptions(),
		OnReduction: func(_ int, r sim.Result) {
			spiked = spiked || r.Series.FinalMax() > qrSpike*r.BestMax
		},
	}
	rounds := 0
	for stall := qrStallRounds; ; stall *= 2 {
		spiked = false
		cfg.StallRounds = stall
		res, err := dmgs.Factorize(v, cfg)
		if err != nil {
			return QRResult{}, err
		}
		rounds += res.TotalRounds
		if !spiked || stall >= opt.MaxRounds {
			return QRResult{
				Q:                  res.Q,
				R:                  res.R,
				FactorizationError: linalg.FactorizationError(v, res.Q, res.R),
				OrthogonalityError: linalg.OrthogonalityError(res.Q),
				Reductions:         res.Reductions,
				TotalRounds:        rounds,
			}, nil
		}
	}
}

// EigenOptions configures the distributed symmetric eigensolver.
type EigenOptions struct {
	// Topology is the gossip network; the matrix dimension must equal
	// its node count (one column per node).
	Topology *Graph
	// Eigenvectors is the number m of dominant eigenpairs (default 1).
	Eigenvectors int
	// Tol is the subspace-stabilization tolerance (default 1e-10).
	Tol float64
	// MaxIterations caps the orthogonal iteration (default 300).
	MaxIterations int
	// Seed makes the run reproducible (default 1).
	Seed int64
}

// EigenResult reports the dominant eigenpairs of a distributed solve.
type EigenResult struct {
	// Values are the dominant eigenvalues in descending |λ| order.
	Values []float64
	// Vectors holds the corresponding eigenvectors as columns.
	Vectors *Matrix
	// Iterations is the number of orthogonal-iteration steps.
	Iterations int
	// Converged reports whether Tol was met before MaxIterations.
	Converged bool
}

// Eigen computes the m dominant eigenpairs of the symmetric matrix a
// with fully distributed orthogonal iteration: the matrix-subspace
// product is one gossip reduction per iteration and the
// orthonormalization builds on the same machinery as QR (the
// eigensolver application of the paper's reference [9]).
func Eigen(a *Matrix, algo Algorithm, opt EigenOptions) (EigenResult, error) {
	if opt.Topology == nil {
		return EigenResult{}, errors.New("pcfreduce: EigenOptions.Topology is required")
	}
	if opt.Eigenvectors == 0 {
		opt.Eigenvectors = 1
	}
	cfg := eigen.DefaultConfig(opt.Topology, algo.NewNode, opt.Eigenvectors)
	if opt.Tol > 0 {
		cfg.Tol = opt.Tol
	}
	if opt.MaxIterations > 0 {
		cfg.MaxIterations = opt.MaxIterations
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	res, err := eigen.Solve(a, cfg)
	if err != nil {
		return EigenResult{}, err
	}
	return EigenResult{
		Values:     res.Values,
		Vectors:    res.Vectors,
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}, nil
}

// WeightedReduce computes the weighted mean Σ wᵢ·xᵢ / Σ wᵢ of the
// per-node inputs with the given positive per-node weights, using the
// same gossip machinery as Reduce (node i contributes mass (wᵢ·xᵢ, wᵢ)).
// The Aggregate field of opt is ignored; every other field applies
// exactly as in Reduce.
func WeightedReduce(inputs, weights []float64, algo Algorithm, opt ReduceOptions) (ReduceResult, error) {
	if err := opt.validate(len(inputs)); err != nil {
		return ReduceResult{}, err
	}
	if len(weights) != len(inputs) {
		return ReduceResult{}, fmt.Errorf("pcfreduce: %d weights for %d nodes", len(weights), len(inputs))
	}
	init := make([]Value, len(inputs))
	for i, w := range weights {
		if !(w > 0) {
			return ReduceResult{}, fmt.Errorf("pcfreduce: weight %d is %g, want > 0", i, w)
		}
		init[i] = gossip.Scalar(w*inputs[i], w)
	}
	return reduceScalar(init, algo, opt), nil
}
