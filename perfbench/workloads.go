package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	goruntime "runtime"
	"time"

	"pcfreduce"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/runtime"
	"pcfreduce/internal/topology"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why records what the workload stresses, one line.
	why string
	// listed workloads appear in BENCHMARK.json; the others can be run
	// by name but are not part of the benchmark's contract.
	listed bool
	// prepare generates every input from seed: the topology, the
	// per-node values or the matrix, and any fault schedule. setup_s
	// times it; topo is the part spent building the topology.
	prepare func(seed int64) (inst instance, topo time.Duration, err error)
}

// instance is a prepared workload: its inputs, and the two ways to run
// them: untraced (through the public call) and traced.
type instance interface {
	// graph is the topology the inputs are spread over.
	graph() *topology.Graph
	// widths lists the value widths the workload's messages carry.
	widths() []int
	// rateName names the throughput metric: node_rounds_per_s for the
	// round simulator, msgs_per_s for the goroutine runtime.
	rateName() string
	// solve runs the public call once and checks its output, including
	// that it repeats the first solve's output bit for bit.
	solve() (sample, error)
	// traced runs the same operation through the layers' own public
	// functions with spans around each call, adds its layer timings to
	// acc, and checks that it gives the untraced output bit for bit.
	traced(tr *tracer, acc *traceAcc) (sample, error)
}

// sample is one operation's measurements.
type sample struct {
	cost     callCost
	rounds   float64            // gossip rounds; 0 on the goroutine runtime
	rate     float64            // node-rounds (simulator) or messages (runtime) per second
	accuracy map[string]float64 // the run reports the worst of each
}

// callCost is the wall time and memory of one public call.
type callCost struct {
	wall    time.Duration
	allocB  uint64 // bytes allocated during the call (TotalAlloc delta)
	heapSys uint64 // HeapSys right after the call
}

// measure runs f and returns its wall time and allocation.
func measure(f func()) callCost {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	f()
	wall := time.Since(start)
	goruntime.ReadMemStats(&after)
	return callCost{wall: wall, allocB: after.TotalAlloc - before.TotalAlloc, heapSys: after.HeapSys}
}

// workloads are every workload the benchmark can run. Node crashes are
// left out of lossy-torus-4k on purpose: after a crash PCF converges to
// roughly the original aggregate, including the dead node's mass, so
// the survivors' oracle error never reaches ε and every operation would
// fail by construction rather than by a defect.
var workloads = []workload{
	{
		name:    "hypercube-16k",
		why:     "Reduce on a 16384-node hypercube, 2 shards, no faults: the parallel activate fan-out and the O(n) oracle scan dominate; interceptor, merge and fault layers idle",
		listed:  true,
		prepare: prepareReduce(func() *topology.Graph { return topology.Hypercube(14) }, 0, 0),
	},
	{
		name:    "lossy-torus-4k",
		why:     "Reduce on a 16^3 torus with 1% loss and 32 link failures: every round takes the serial merge; per-round fixed cost and fault handling dominate; no crashes (oracle unreachable)",
		listed:  true,
		prepare: prepareReduce(func() *topology.Graph { return topology.Torus3D(16, 16, 16) }, 0.01, 32),
	},
	{
		// Not listed, because a listed workload must not fail: on about
		// one 512x32 input in 500, pcfreduce.QR's fixed 60-round stall
		// cutoff stops the batched reductions before the nodes' copies
		// of R agree, and the factorization error exceeds the 1e-12
		// check. It stays runnable by name to measure that defect and
		// the dmgs and linalg layers.
		name:    "qr-512x32",
		why:     "dmGS QR (paper Sec. IV) of a 512x32 matrix on 128 nodes: 32 short vector reductions on the sequential round model and the vector value algebra",
		prepare: prepareQR,
	},
	{
		// Not listed, because a listed workload must not fail: PCF on
		// the goroutine runtime misses the 3 s timeout in about one run
		// in seven, and a fail_rate over a few dozen runs is too noisy
		// to bound. It stays runnable by name to measure that defect.
		name:    "runtime-125",
		why:     "PCF on the goroutine runtime over a 5^3 torus: goroutine nodes, channel inboxes, back-pressure drops and the monitor probe",
		prepare: prepareRuntime,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// uniformInputs draws n values from U[0,1).
func uniformInputs(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}

// referenceMean is the mean of xs computed exactly in big-float
// arithmetic and rounded once: the oracle the library's own compensated
// sum is checked against.
func referenceMean(xs []float64) float64 {
	sum := new(big.Float).SetPrec(512)
	var term big.Float
	for _, x := range xs {
		sum.Add(sum, term.SetFloat64(x))
	}
	sum.Quo(sum, new(big.Float).SetInt64(int64(len(xs))))
	f, _ := sum.Float64()
	return f
}

// ulps is how far the library's aggregate may sit from the exactly
// rounded reference, in units of the last place.
const ulps = 2

// checkAggregate checks the library's exact aggregate against the
// reference, and every estimate against eps relative to the reference.
func checkAggregate(exact, ref float64, estimates []float64, eps float64) error {
	if err := checkFinite("estimate", estimates); err != nil {
		return err
	}
	if math.Abs(exact-ref) > ulps*math.Abs(ref)*0x1p-52 {
		return fmt.Errorf("exact aggregate %v differs from the reference sum %v", exact, ref)
	}
	for i, est := range estimates {
		if rel := math.Abs(est-ref) / math.Abs(ref); rel > eps+4*ulps*0x1p-52 {
			return fmt.Errorf("node %d estimate %v has relative error %g against the reference, want ≤ %g", i, est, rel, eps)
		}
	}
	return nil
}

// sameBits reports whether two float slices are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// maxRoundsFor is the round cap given to Reduce: the facade's default,
// passed explicitly so the traced replay runs under the same cap.
func maxRoundsFor(n int) int {
	log2 := 0
	for 1<<uint(log2) < n {
		log2++
	}
	return 500*log2 + 2000
}

// linkFailures draws count distinct links of g to fail permanently at
// rounds uniform in [from, to], redrawing the whole schedule in the rare
// case that it would disconnect the graph (the aggregate would then be
// undefined, not wrong).
func linkFailures(rng *rand.Rand, g *topology.Graph, count, from, to int) []pcfreduce.LinkFailure {
	edges := g.Edges()
	for {
		perm := rng.Perm(len(edges))[:count]
		out := make([]pcfreduce.LinkFailure, count)
		failed := make(map[[2]int]bool, count)
		for k, idx := range perm {
			e := edges[idx]
			out[k] = pcfreduce.LinkFailure{Round: from + rng.Intn(to-from+1), A: e[0], B: e[1]}
			failed[e] = true
		}
		if connectedWithout(g, edges, failed) {
			return out
		}
	}
}

// connectedWithout reports whether g stays connected once the failed
// edges are gone (union-find over the surviving edges).
func connectedWithout(g *topology.Graph, edges [][2]int, failed map[[2]int]bool) bool {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	parts := g.N()
	for _, e := range edges {
		if failed[e] {
			continue
		}
		if a, b := find(e[0]), find(e[1]); a != b {
			parent[a] = b
			parts--
		}
	}
	return parts == 1
}

// reduceEps is the accuracy target of both Reduce workloads.
const reduceEps = 1e-12

// reduceInstance is a prepared Reduce workload.
type reduceInstance struct {
	g      *topology.Graph
	inputs []float64
	opt    pcfreduce.ReduceOptions
	ref    float64                 // reference aggregate, computed on first check
	first  *pcfreduce.ReduceResult // the first solve, which later ones must repeat
}

// prepareReduce returns the prepare function of a Reduce workload over
// the graph build makes, with the given loss rate and number of link
// failures (in rounds 20–175).
func prepareReduce(build func() *topology.Graph, loss float64, failures int) func(int64) (instance, time.Duration, error) {
	return func(seed int64) (instance, time.Duration, error) {
		start := time.Now()
		g := build()
		topo := time.Since(start)
		rng := rand.New(rand.NewSource(seed))
		inputs := uniformInputs(rng, g.N())
		opt := pcfreduce.ReduceOptions{
			Topology:  g,
			Aggregate: pcfreduce.Average,
			Eps:       reduceEps,
			MaxRounds: maxRoundsFor(g.N()),
			// The facade reserves seed 0 for its default; seed+1 keeps
			// every workload seed distinct and explicit.
			Seed:     seed + 1,
			LossRate: loss,
			Shards:   2,
		}
		if failures > 0 {
			opt.LinkFailures = linkFailures(rng, g, failures, 20, 175)
		}
		return &reduceInstance{g: g, inputs: inputs, opt: opt}, topo, nil
	}
}

func (ri *reduceInstance) graph() *topology.Graph { return ri.g }
func (ri *reduceInstance) widths() []int          { return []int{1} }
func (ri *reduceInstance) rateName() string       { return "node_rounds_per_s" }

func (ri *reduceInstance) solve() (sample, error) {
	var res pcfreduce.ReduceResult
	var err error
	cost := measure(func() { res, err = pcfreduce.Reduce(ri.inputs, pcfreduce.PCF, ri.opt) })
	s := sample{
		cost:     cost,
		rounds:   float64(res.Rounds),
		rate:     float64(ri.g.N()) * float64(res.Rounds) / cost.wall.Seconds(),
		accuracy: map[string]float64{"max_rel_error": res.MaxError},
	}
	if err != nil {
		return s, fmt.Errorf("Reduce: %w", err)
	}
	if err := ri.check(res); err != nil {
		return s, err
	}
	if ri.first == nil {
		ri.first = &res
		return s, nil
	}
	return s, sameReduce("solve", *ri.first, res)
}

// check applies every output check to one Reduce result.
func (ri *reduceInstance) check(res pcfreduce.ReduceResult) error {
	if !res.Converged {
		return fmt.Errorf("not converged after %d rounds (max error %g)", res.Rounds, res.MaxError)
	}
	if !(res.MaxError <= ri.opt.Eps) {
		return fmt.Errorf("max error %g above eps %g", res.MaxError, ri.opt.Eps)
	}
	if ri.ref == 0 {
		ri.ref = referenceMean(ri.inputs)
	}
	return checkAggregate(res.Exact, ri.ref, res.Estimates, ri.opt.Eps)
}

// sameReduce checks that got repeats want bit for bit.
func sameReduce(what string, want, got pcfreduce.ReduceResult) error {
	if got.Rounds != want.Rounds || math.Float64bits(got.MaxError) != math.Float64bits(want.MaxError) {
		return fmt.Errorf("%s gave %d rounds, max error %v; the first solve gave %d rounds, %v",
			what, got.Rounds, got.MaxError, want.Rounds, want.MaxError)
	}
	if !sameBits(got.Estimates, want.Estimates) {
		return fmt.Errorf("%s estimates differ from the first solve's", what)
	}
	return nil
}

// QR workload parameters.
const (
	qrRows, qrCols = 512, 32
	qrDim          = 7 // hypercube dimension: 128 nodes
	qrEps          = 1e-15
	qrMaxRounds    = 4000
	qrTol          = 1e-12
)

// qrInstance is a prepared QR workload.
type qrInstance struct {
	g     *topology.Graph
	v     *pcfreduce.Matrix
	opt   pcfreduce.QROptions
	first *pcfreduce.QRResult
}

func prepareQR(seed int64) (instance, time.Duration, error) {
	start := time.Now()
	g := topology.Hypercube(qrDim)
	topo := time.Since(start)
	v := pcfreduce.RandomMatrix(qrRows, qrCols, seed)
	opt := pcfreduce.QROptions{Topology: g, Eps: qrEps, MaxRounds: qrMaxRounds, Seed: seed + 1, Batched: true}
	return &qrInstance{g: g, v: v, opt: opt}, topo, nil
}

func (qi *qrInstance) graph() *topology.Graph { return qi.g }
func (qi *qrInstance) rateName() string       { return "node_rounds_per_s" }

// widths are the batched reductions' widths: m−k for column k.
func (qi *qrInstance) widths() []int {
	ws := make([]int, qrCols)
	for k := range ws {
		ws[k] = qrCols - k
	}
	return ws
}

func (qi *qrInstance) solve() (sample, error) {
	var res pcfreduce.QRResult
	var err error
	cost := measure(func() { res, err = pcfreduce.QR(qi.v, pcfreduce.PCF, qi.opt) })
	s := sample{
		cost:   cost,
		rounds: float64(res.TotalRounds),
		rate:   float64(qi.g.N()) * float64(res.TotalRounds) / cost.wall.Seconds(),
		accuracy: map[string]float64{
			"qr_factorization_error": res.FactorizationError,
			"qr_orthogonality_error": res.OrthogonalityError,
		},
	}
	if err != nil {
		return s, fmt.Errorf("QR: %w", err)
	}
	if err := qi.check(res); err != nil {
		return s, err
	}
	if qi.first == nil {
		qi.first = &res
		return s, nil
	}
	return s, sameQR("solve", *qi.first, res.TotalRounds, res.R)
}

// check applies every output check to one QR result: the facade's error
// figures, and the same figures recomputed here without linalg.
func (qi *qrInstance) check(res pcfreduce.QRResult) error {
	if res.Reductions != qrCols {
		return fmt.Errorf("%d reductions, want %d", res.Reductions, qrCols)
	}
	if err := checkFinite("Q", res.Q.Data); err != nil {
		return err
	}
	if err := checkFinite("R", res.R.Data); err != nil {
		return err
	}
	if !(res.FactorizationError <= qrTol) || !(res.OrthogonalityError <= qrTol) {
		return fmt.Errorf("factorization error %g, orthogonality error %g, want both ≤ %g",
			res.FactorizationError, res.OrthogonalityError, qrTol)
	}
	fe, oe := qrErrors(qi.v, res.Q, res.R)
	if !(fe <= qrTol) || !(oe <= qrTol) {
		return fmt.Errorf("recomputed factorization error %g, orthogonality error %g, want both ≤ %g", fe, oe, qrTol)
	}
	return nil
}

// qrErrors recomputes ‖V − QR‖∞/‖V‖∞ and ‖QᵀQ − I‖∞ with plain loops.
func qrErrors(v, q, r *pcfreduce.Matrix) (fact, orth float64) {
	n, m := v.Rows, v.Cols
	var resid, norm float64
	for i := 0; i < n; i++ {
		var rowResid, rowNorm float64
		for j := 0; j < m; j++ {
			var qr float64
			for k := 0; k <= j; k++ {
				qr += q.Data[i*m+k] * r.Data[k*m+j]
			}
			rowResid += math.Abs(v.Data[i*m+j] - qr)
			rowNorm += math.Abs(v.Data[i*m+j])
		}
		resid = math.Max(resid, rowResid)
		norm = math.Max(norm, rowNorm)
	}
	for a := 0; a < m; a++ {
		var row float64
		for b := 0; b < m; b++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += q.Data[i*m+a] * q.Data[i*m+b]
			}
			if a == b {
				dot--
			}
			row += math.Abs(dot)
		}
		orth = math.Max(orth, row)
	}
	return resid / norm, orth
}

// sameQR checks that a factorization repeats the first solve bit for bit.
func sameQR(what string, want pcfreduce.QRResult, rounds int, r *pcfreduce.Matrix) error {
	if rounds != want.TotalRounds {
		return fmt.Errorf("%s took %d rounds; the first solve took %d", what, rounds, want.TotalRounds)
	}
	if !sameBits(r.Data, want.R.Data) {
		return fmt.Errorf("%s R differs from the first solve's", what)
	}
	return nil
}

// Runtime workload parameters.
const (
	runtimeEps     = 1e-9
	runtimeTimeout = 3 * time.Second
	runtimeStable  = 3
)

// runtimeInstance is a prepared goroutine-runtime workload.
type runtimeInstance struct {
	g      *topology.Graph
	inputs []float64
	seed   int64
	ref    float64
}

func prepareRuntime(seed int64) (instance, time.Duration, error) {
	start := time.Now()
	g := topology.Torus3D(5, 5, 5)
	topo := time.Since(start)
	inputs := uniformInputs(rand.New(rand.NewSource(seed)), g.N())
	return &runtimeInstance{g: g, inputs: inputs, seed: seed + 1}, topo, nil
}

func (rt *runtimeInstance) graph() *topology.Graph { return rt.g }
func (rt *runtimeInstance) widths() []int          { return []int{1} }
func (rt *runtimeInstance) rateName() string       { return "msgs_per_s" }

// config is the runtime configuration the untraced and traced runs use.
func (rt *runtimeInstance) config() runtime.Config {
	init := make([]gossip.Value, len(rt.inputs))
	for i, x := range rt.inputs {
		init[i] = gossip.Scalar(x, 1)
	}
	return runtime.Config{Graph: rt.g, NewProtocol: pcfreduce.PCF.NewNode, Init: init, Seed: rt.seed}
}

var runtimeRun = runtime.RunConfig{Eps: runtimeEps, Timeout: runtimeTimeout, Stable: runtimeStable}

func (rt *runtimeInstance) solve() (sample, error) {
	cfg := rt.config()
	var net *runtime.Network
	var res runtime.RunResult
	var err error
	cost := measure(func() {
		net, err = runtime.New(cfg)
		if err == nil {
			res, err = net.Run(context.Background(), runtimeRun)
		}
	})
	if err != nil {
		return sample{cost: cost}, fmt.Errorf("runtime: %w", err)
	}
	return rt.result(cost, net, res)
}

// result checks one runtime run and turns it into a sample.
func (rt *runtimeInstance) result(cost callCost, net *runtime.Network, res runtime.RunResult) (sample, error) {
	s := sample{
		cost:     cost,
		rate:     float64(res.TotalSends) / res.Elapsed.Seconds(),
		accuracy: map[string]float64{"max_rel_error": res.FinalMaxError},
	}
	if !res.Converged {
		return s, fmt.Errorf("not converged within %v (max error %g)", runtimeTimeout, res.FinalMaxError)
	}
	if !(res.FinalMaxError <= runtimeEps) {
		return s, fmt.Errorf("final max error %g above eps %g", res.FinalMaxError, runtimeEps)
	}
	if rt.ref == 0 {
		rt.ref = referenceMean(rt.inputs)
	}
	ests := net.Estimates()
	flat := make([]float64, len(ests))
	for i, e := range ests {
		flat[i] = e[0]
	}
	if err := checkFinite("estimate", flat); err != nil {
		return s, err
	}
	if exact := net.Targets()[0]; math.Abs(exact-rt.ref) > ulps*math.Abs(rt.ref)*0x1p-52 {
		return s, fmt.Errorf("exact aggregate %v differs from the reference sum %v", exact, rt.ref)
	}
	return s, nil
}
