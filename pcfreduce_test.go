package pcfreduce_test

import (
	"context"
	"math"
	"testing"
	"time"

	"pcfreduce"
	"pcfreduce/internal/metrics"
)

func inputsFor(g *pcfreduce.Graph) []float64 {
	out := make([]float64, g.N())
	for i := range out {
		out[i] = float64(i%7) + 0.5
	}
	return out
}

func TestReduceAverage(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Eps:      1e-13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	var want float64
	for _, x := range in {
		want += x
	}
	want /= float64(len(in))
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want %.15g", res.Exact, want)
	}
	for i, est := range res.Estimates {
		if math.Abs(est-want)/want > 1e-12 {
			t.Fatalf("node %d estimate %.15g", i, est)
		}
	}
}

func TestReduceSum(t *testing.T) {
	g := pcfreduce.Ring(16)
	in := inputsFor(g)
	res, err := pcfreduce.Reduce(in, pcfreduce.PushFlow, pcfreduce.ReduceOptions{
		Topology:  g,
		Aggregate: pcfreduce.Sum,
		Eps:       1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	var want float64
	for _, x := range in {
		want += x
	}
	if math.Abs(res.Estimates[7]-want)/want > 1e-11 {
		t.Fatalf("estimate %.15g, want %.15g", res.Estimates[7], want)
	}
}

func TestReduceValidation(t *testing.T) {
	g := pcfreduce.Path(4)
	if _, err := pcfreduce.Reduce([]float64{1, 2, 3, 4}, pcfreduce.PCF, pcfreduce.ReduceOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.Reduce([]float64{1, 2}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	disconnected := pcfreduce.Grid2D(1, 1)
	_ = disconnected
	two := pcfreduce.Path(2).RemoveEdge(0, 1)
	if _, err := pcfreduce.Reduce([]float64{1, 2}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: two}); err == nil {
		t.Fatal("disconnected topology accepted")
	}
}

func TestReduceWithFaults(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	var traced int
	res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology:     g,
		Eps:          1e-12,
		MaxRounds:    5000,
		LossRate:     0.05,
		LinkFailures: []pcfreduce.LinkFailure{{Round: 30, A: 0, B: 1}},
		NodeCrashes:  []pcfreduce.NodeCrash{{Round: 0, Node: 9}},
		Trace:        func(round int, maxErr float64) { traced++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged under faults: %.3e", res.MaxError)
	}
	if traced != res.Rounds {
		t.Fatalf("trace called %d times for %d rounds", traced, res.Rounds)
	}
	if !math.IsNaN(res.Estimates[9]) {
		t.Fatal("crashed node must report NaN")
	}
	// With node 9 crashed at round 0, Exact is the survivors' average.
	var want float64
	for i, x := range in {
		if i != 9 {
			want += x
		}
	}
	want /= float64(len(in) - 1)
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want survivors' %.15g", res.Exact, want)
	}
}

func TestReduceDeterminism(t *testing.T) {
	g := pcfreduce.Torus2D(4, 4)
	in := inputsFor(g)
	opt := pcfreduce.ReduceOptions{Topology: g, Seed: 42, MaxRounds: 60, Eps: 1e-300}
	a, err := pcfreduce.Reduce(in, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pcfreduce.Reduce(in, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[pcfreduce.Algorithm]string{
		pcfreduce.PCF:          "PCF",
		pcfreduce.PCFRobust:    "PCF-robust",
		pcfreduce.PushFlow:     "push-flow",
		pcfreduce.PushSum:      "push-sum",
		pcfreduce.FlowUpdating: "flow-updating",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%v", a)
		}
		if a.NewNode() == nil {
			t.Fatalf("%v: nil node", a)
		}
	}
}

func TestReduceConcurrent(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	res, err := pcfreduce.ReduceConcurrent(context.Background(), in, pcfreduce.PCF, pcfreduce.ConcurrentOptions{
		Topology: g,
		Eps:      1e-9,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	if math.Abs(res.Estimates[3]-res.Exact)/res.Exact > 1e-8 {
		t.Fatalf("estimate %.12g vs exact %.12g", res.Estimates[3], res.Exact)
	}
}

func TestReduceConcurrentValidation(t *testing.T) {
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), nil, pcfreduce.PCF, pcfreduce.ConcurrentOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	g := pcfreduce.Ring(4)
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), []float64{1}, pcfreduce.PCF, pcfreduce.ConcurrentOptions{Topology: g}); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestQRFacade(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	v := pcfreduce.RandomMatrix(16, 5, 7)
	res, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.FactorizationError > 1e-12 {
		t.Fatalf("factorization error %.3e", res.FactorizationError)
	}
	if res.OrthogonalityError > 1e-12 {
		t.Fatalf("orthogonality error %.3e", res.OrthogonalityError)
	}
	if res.Reductions != 9 || res.TotalRounds <= 0 {
		t.Fatalf("work counters %+v", res)
	}
	if res.Q.Rows != 16 || res.Q.Cols != 5 || res.R.Rows != 5 {
		t.Fatal("factor shapes")
	}
	if _, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestNewMatrixHelpers(t *testing.T) {
	m := pcfreduce.NewMatrix(2, 2)
	if m.Rows != 2 || m.At(1, 1) != 0 {
		t.Fatal("NewMatrix")
	}
	r := pcfreduce.RandomMatrix(3, 3, 1)
	if r.Rows != 3 || r.MaxAbs() == 0 {
		t.Fatal("RandomMatrix")
	}
}

func TestEigenFacade(t *testing.T) {
	g := pcfreduce.Hypercube(3)
	n := g.N()
	// Diagonal-dominant symmetric matrix with a clear dominant pair.
	a := pcfreduce.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	a.Set(0, 0, 12)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	res, err := pcfreduce.Eigen(a, pcfreduce.PCF, pcfreduce.EigenOptions{
		Topology:     g,
		Eigenvectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d iterations", res.Iterations)
	}
	// Dominant eigenvalue of the 2x2 block [[12,2],[2,1]] ⊕ I:
	// (13 + sqrt(121+16))/2.
	want := (13 + math.Sqrt(137)) / 2
	if math.Abs(res.Values[0]-want) > 1e-8 {
		t.Fatalf("λ1 = %.12g, want %.12g", res.Values[0], want)
	}
	if _, err := pcfreduce.Eigen(a, pcfreduce.PCF, pcfreduce.EigenOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestWeightedReduce(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	weights := make([]float64, n)
	var num, den float64
	for i := range inputs {
		inputs[i] = float64(i)
		weights[i] = float64(i%3) + 0.5
		num += weights[i] * inputs[i]
		den += weights[i]
	}
	res, err := pcfreduce.WeightedReduce(inputs, weights, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Eps:      1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := num / den
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want %.15g", res.Exact, want)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	if math.Abs(res.Estimates[7]-want)/want > 1e-11 {
		t.Fatalf("estimate %.15g", res.Estimates[7])
	}
	// Validation.
	if _, err := pcfreduce.WeightedReduce(inputs, weights[:3], pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	weights[2] = 0
	if _, err := pcfreduce.WeightedReduce(inputs, weights, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// Reduce with Shards set runs on the sharded executor: converged result,
// byte-identical across shard counts, and negative counts rejected.
func TestReduceSharded(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	run := func(shards int) pcfreduce.ReduceResult {
		res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
			Topology: g,
			Eps:      1e-13,
			Shards:   shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("shards=%d not converged: %.3e", shards, res.MaxError)
		}
		return res
	}
	ref := run(1)
	for _, p := range []int{2, 8} {
		got := run(p)
		if got.Rounds != ref.Rounds {
			t.Fatalf("shards=%d took %d rounds, shards=1 took %d", p, got.Rounds, ref.Rounds)
		}
		for i := range ref.Estimates {
			if math.Float64bits(got.Estimates[i]) != math.Float64bits(ref.Estimates[i]) {
				t.Fatalf("shards=%d node %d estimate differs from shards=1", p, i)
			}
		}
	}
	if _, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Shards:   -2,
	}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// ReduceBatch with k=1 must be bit-identical to Reduce: the batched path
// is a strict generalization, not a parallel implementation with its own
// numerics.
func TestReduceBatchWidthOneBitwise(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	scalar, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([][]float64, len(in))
	for i, x := range in {
		vec[i] = []float64{x}
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rounds != scalar.Rounds || batch.Converged != scalar.Converged || batch.MaxError != scalar.MaxError {
		t.Fatalf("k=1 batch diverges from scalar: %+v vs %+v", batch, scalar)
	}
	for i := range in {
		if batch.Estimates[i][0] != scalar.Estimates[i] {
			t.Fatalf("node %d: batch %.17g, scalar %.17g", i, batch.Estimates[i][0], scalar.Estimates[i])
		}
	}
	if batch.Exact[0] != scalar.Exact {
		t.Fatalf("exact: %.17g vs %.17g", batch.Exact[0], scalar.Exact)
	}
}

// k aggregates in one run: every component converges to its own exact
// value, in no more rounds than one scalar reduction of the hardest
// component would take times a small constant — NOT k times.
func TestReduceBatchManyAggregates(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	n := g.N()
	const k = 16
	vec := make([][]float64, n)
	for i := range vec {
		vec[i] = make([]float64, k)
		for c := 0; c < k; c++ {
			vec[i][c] = float64((i*(c+1))%13) + 0.25*float64(c+1)
		}
	}
	scalarRounds := 0
	for c := 0; c < k; c++ {
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = vec[i][c]
		}
		res, err := pcfreduce.Reduce(comp, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		scalarRounds += res.Rounds
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Converged {
		t.Fatalf("batch did not converge: %.3e", batch.MaxError)
	}
	for c := 0; c < k; c++ {
		var want float64
		for i := range vec {
			want += vec[i][c]
		}
		want /= float64(n)
		if math.Abs(batch.Exact[c]-want) > 1e-11*math.Abs(want) {
			t.Fatalf("component %d: Exact=%.15g, want %.15g", c, batch.Exact[c], want)
		}
		for i := range vec {
			if math.Abs(batch.Estimates[i][c]-want) > 1e-10*math.Abs(want) {
				t.Fatalf("component %d node %d: %.15g, want %.15g", c, i, batch.Estimates[i][c], want)
			}
		}
	}
	// The batching claim: k aggregates cost ~1 reduction's rounds, so the
	// k-run scalar total must dwarf the single batched run.
	if 4*batch.Rounds >= scalarRounds {
		t.Fatalf("batched %d rounds vs %d total scalar rounds — no batching win", batch.Rounds, scalarRounds)
	}
}

// ReduceBatch under faults: a crashed node reports NaNs, and every
// batch component is bitwise equal to a scalar Reduce of that component
// under the identical fault plan — the schedule is width-independent
// and the protocols act component-wise.
func TestReduceBatchWithCrash(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	n := g.N()
	vec := make([][]float64, n)
	for i := range vec {
		vec[i] = []float64{float64(i) + 1, 2 * float64(i)}
	}
	opt := pcfreduce.ReduceOptions{
		Topology:    g,
		Eps:         1e-12,
		NodeCrashes: []pcfreduce.NodeCrash{{Round: 5, Node: 3}},
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(batch.Estimates[3][0]) || !math.IsNaN(batch.Estimates[3][1]) {
		t.Fatal("crashed node should report NaN estimates")
	}
	for c := 0; c < 2; c++ {
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = vec[i][c]
		}
		scalar, err := pcfreduce.Reduce(comp, pcfreduce.PCF, opt)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Exact[c] != scalar.Exact || batch.Rounds != scalar.Rounds {
			t.Fatalf("component %d: exact/rounds diverge from scalar", c)
		}
		for i := range comp {
			if i == 3 {
				continue
			}
			if batch.Estimates[i][c] != scalar.Estimates[i] {
				t.Fatalf("component %d node %d: batch %.17g, scalar %.17g", c, i, batch.Estimates[i][c], scalar.Estimates[i])
			}
		}
	}
}

func TestReduceBatchValidation(t *testing.T) {
	g := pcfreduce.Path(4)
	ok := [][]float64{{1}, {2}, {3}, {4}}
	if _, err := pcfreduce.ReduceBatch(ok, pcfreduce.PCF, pcfreduce.ReduceOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.ReduceBatch(ok[:2], pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	if _, err := pcfreduce.ReduceBatch([][]float64{{1}, {2}, {3, 9}, {4}}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("ragged widths accepted")
	}
	if _, err := pcfreduce.ReduceBatch([][]float64{{}, {}, {}, {}}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("zero width accepted")
	}
}

// A stall cutoff that fires while a reduction's error spikes must not
// end the factorization: on this input the first cutoff of 60 rounds
// stops one reduction at 7.9e-12 (its best was 2.2e-15), and the
// factorization error lands at 1.5e-12 unless QR repeats it with a
// longer cutoff.
func TestQRStallSpikeRegression(t *testing.T) {
	v := pcfreduce.RandomMatrix(512, 32, 1705549505236926581)
	res, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{
		Topology: pcfreduce.Hypercube(7), Eps: 1e-15, MaxRounds: 4000,
		Seed: 1705549505236926582, Batched: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FactorizationError > 1e-12 || res.OrthogonalityError > 1e-12 {
		t.Fatalf("fe=%.3e oe=%.3e after %d rounds, want both ≤ 1e-12",
			res.FactorizationError, res.OrthogonalityError, res.TotalRounds)
	}
	if res.Reductions != 32 {
		t.Fatalf("%d reductions, want 32", res.Reductions)
	}
}

// Batched QR: m reductions instead of 2m−1, fewer total rounds, same
// factorization quality.
func TestQRBatched(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	v := pcfreduce.RandomMatrix(16, 6, 3)
	legacy, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g, Batched: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Reductions != 11 || batched.Reductions != 6 {
		t.Fatalf("reductions: legacy %d (want 11), batched %d (want 6)", legacy.Reductions, batched.Reductions)
	}
	if batched.TotalRounds >= legacy.TotalRounds {
		t.Fatalf("batched QR did not cut rounds: %d vs %d", batched.TotalRounds, legacy.TotalRounds)
	}
	if batched.FactorizationError > 1e-12 || batched.OrthogonalityError > 1e-12 {
		t.Fatalf("batched QR quality: fe=%.3e oe=%.3e", batched.FactorizationError, batched.OrthogonalityError)
	}
}

// Options the engine cannot run are rejected with an error by every
// facade entry point instead of panicking inside the engine.
func TestReduceOptionsRejected(t *testing.T) {
	g := pcfreduce.Hypercube(5) // 32 nodes; 0 and 7 are not adjacent
	in := inputsFor(g)
	batch := make([][]float64, len(in))
	weights := make([]float64, len(in))
	for i, x := range in {
		batch[i] = []float64{x, -x}
		weights[i] = 1
	}
	cases := []struct {
		name string
		opt  pcfreduce.ReduceOptions
	}{
		{"loss NaN", pcfreduce.ReduceOptions{LossRate: math.NaN()}},
		{"loss above 1", pcfreduce.ReduceOptions{LossRate: 1.5}},
		{"loss negative", pcfreduce.ReduceOptions{LossRate: -0.1}},
		{"link non-edge", pcfreduce.ReduceOptions{LinkFailures: []pcfreduce.LinkFailure{{Round: 3, A: 0, B: 7}}}},
		{"link self", pcfreduce.ReduceOptions{LinkFailures: []pcfreduce.LinkFailure{{Round: 3, A: 4, B: 4}}}},
		{"link id out of range", pcfreduce.ReduceOptions{LinkFailures: []pcfreduce.LinkFailure{{Round: 3, A: 0, B: 32}}}},
		{"link id negative", pcfreduce.ReduceOptions{LinkFailures: []pcfreduce.LinkFailure{{Round: 3, A: -1, B: 0}}}},
		{"link round negative", pcfreduce.ReduceOptions{LinkFailures: []pcfreduce.LinkFailure{{Round: -1, A: 0, B: 1}}}},
		{"crash id out of range", pcfreduce.ReduceOptions{NodeCrashes: []pcfreduce.NodeCrash{{Round: 3, Node: 32}}}},
		{"crash id negative", pcfreduce.ReduceOptions{NodeCrashes: []pcfreduce.NodeCrash{{Round: 3, Node: -1}}}},
		{"crash round negative", pcfreduce.ReduceOptions{NodeCrashes: []pcfreduce.NodeCrash{{Round: -2, Node: 3}}}},
	}
	calls := map[string]func(pcfreduce.ReduceOptions) error{
		"Reduce": func(o pcfreduce.ReduceOptions) error {
			_, err := pcfreduce.Reduce(in, pcfreduce.PCF, o)
			return err
		},
		"ReduceBatch": func(o pcfreduce.ReduceOptions) error {
			_, err := pcfreduce.ReduceBatch(batch, pcfreduce.PCF, o)
			return err
		},
		"WeightedReduce": func(o pcfreduce.ReduceOptions) error {
			_, err := pcfreduce.WeightedReduce(in, weights, pcfreduce.PCF, o)
			return err
		},
	}
	for _, c := range cases {
		for name, call := range calls {
			opt := c.opt
			opt.Topology = g
			opt.MaxRounds = 10
			if err := call(opt); err == nil {
				t.Errorf("%s accepted %s", name, c.name)
			}
		}
	}
	// The boundary values are valid.
	for name, call := range calls {
		opt := pcfreduce.ReduceOptions{
			Topology:     g,
			MaxRounds:    10,
			LossRate:     1,
			LinkFailures: []pcfreduce.LinkFailure{{Round: 0, A: 0, B: 1}},
			NodeCrashes:  []pcfreduce.NodeCrash{{Round: 0, Node: 31}},
		}
		if err := call(opt); err != nil {
			t.Errorf("%s rejected valid options: %v", name, err)
		}
	}
}

// WeightedReduce honours every ReduceOptions field but Aggregate: with
// unit weights it is bit-identical to Reduce under the same link
// failure, node crash, shard count and recorder, and the recorder sees
// both faults.
func TestWeightedReduceAppliesFaults(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	weights := make([]float64, len(in))
	for i := range weights {
		weights[i] = 1
	}
	opts := func(rec *pcfreduce.MetricsRecorder) pcfreduce.ReduceOptions {
		return pcfreduce.ReduceOptions{
			Topology:     g,
			Eps:          1e-12,
			MaxRounds:    5000,
			LinkFailures: []pcfreduce.LinkFailure{{Round: 20, A: 0, B: 1}},
			NodeCrashes:  []pcfreduce.NodeCrash{{Round: 0, Node: 9}},
			Shards:       2,
			Metrics:      rec,
		}
	}
	rec := pcfreduce.NewMetrics(pcfreduce.MetricsConfig{})
	got, err := pcfreduce.WeightedReduce(in, weights, pcfreduce.PCF, opts(rec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pcfreduce.Reduce(in, pcfreduce.PCF, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || got.Rounds != want.Rounds || math.Float64bits(got.MaxError) != math.Float64bits(want.MaxError) {
		t.Fatalf("WeightedReduce: converged %v after %d rounds at %.3e; Reduce: %d rounds at %.3e",
			got.Converged, got.Rounds, got.MaxError, want.Rounds, want.MaxError)
	}
	for i := range want.Estimates {
		if math.Float64bits(got.Estimates[i]) != math.Float64bits(want.Estimates[i]) {
			t.Fatalf("node %d: WeightedReduce %.17g, Reduce %.17g", i, got.Estimates[i], want.Estimates[i])
		}
	}
	if !math.IsNaN(got.Estimates[9]) {
		t.Fatal("crashed node must report NaN")
	}
	var linkFail, crash bool
	for _, ev := range rec.Events() {
		linkFail = linkFail || (ev.Kind == metrics.EvLinkFail && ev.A == 0 && ev.B == 1)
		crash = crash || (ev.Kind == metrics.EvNodeCrash && ev.A == 9)
	}
	if !linkFail || !crash {
		t.Fatalf("recorder saw link failure %v, node crash %v", linkFail, crash)
	}
}
