package sim_test

// Cross-path differential suite for the parallel executor: every
// combination of worker parallelism (GOMAXPROCS raised so the pool
// actually fans out, exercised under -race) and shard count ∈
// {1,2,3,5,6,8} must produce byte-identical state to the sequential
// WithShards(1) reference, under a fault-free run, a silent-crash +
// transient-outage plan observed only through the failure detector, and
// an open-world churn plan with per-link loss, whose joins grow the
// last shard. On every graph here (63, 32 and 31 nodes) at least three
// of those counts leave the shards unequal in size, so shard boundaries
// fall at uneven ids and the last shard is the largest.

import (
	"fmt"
	"runtime"
	"testing"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// withParallelWorkers raises GOMAXPROCS for the duration of a test so
// the sharded engine's worker pool genuinely runs phase 1 on multiple
// goroutines even on a single-core host (the results are identical
// either way — that is the property under test; raising it makes the
// -race run exercise the real cross-goroutine paths).
func withParallelWorkers(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// layoutVariants enumerates the executor configurations under test:
// the shardCounts domain plus 5 and 6, which split none of this file's
// graphs evenly.
func layoutVariants() []struct {
	label string
	opt   sim.EngineOption
} {
	var out []struct {
		label string
		opt   sim.EngineOption
	}
	for _, p := range append([]int{5, 6}, shardCounts...) {
		out = append(out, struct {
			label string
			opt   sim.EngineOption
		}{fmt.Sprintf("P=%d", p), sim.WithShards(p)})
	}
	return out
}

// TestPartitionDeterminismPlain: fault-free differential over both
// topologies, all four protocols, all shard counts.
func TestPartitionDeterminismPlain(t *testing.T) {
	withParallelWorkers(t, 4)
	for _, g := range []*topology.Graph{topology.BinaryTree(63), topology.Hypercube(5)} {
		for _, tc := range allProtocols {
			t.Run(g.Name()+"/"+tc.name, func(t *testing.T) {
				n := g.N()
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = float64(3*i%11) + 0.25
				}
				ref := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7, sim.WithShards(1))
				want := fingerprintEngine(ref, 200, nil)
				for _, v := range layoutVariants() {
					eng := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7, v.opt)
					got := fingerprintEngine(eng, 200, nil)
					sameFingerprint(t, v.label+" vs sequential", want, got)
					eng.Close()
				}
			})
		}
	}
}

// TestPartitionDeterminismFaults: silent crash + transient outage,
// detector-observed, across all shard counts on the tree topology.
func TestPartitionDeterminismFaults(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	const crash = 9
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := allProtocols[0].mk // PCF
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, crash))

	build := func(opt sim.EngineOption) shardFingerprint {
		plan := fault.NewPlan(events...)
		eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			opt, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))
		defer eng.Close()
		return fingerprintEngine(eng, 400, plan.OnRound)
	}

	want := build(sim.WithShards(1))
	if want.stats.Suspicions == 0 {
		t.Fatal("reference run registered no suspicions — fault plan inert")
	}
	for _, v := range layoutVariants() {
		sameFingerprint(t, v.label+" vs sequential", want, build(v.opt))
	}
}

// TestPartitionDeterminismChurn: the open-world plan (joins, leaves,
// rewires, per-link loss) across all shard counts — joins append to the
// last shard, so churned runs stay byte-identical.
func TestPartitionDeterminismChurn(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(31)
	inputs := churnInputs(g.N())
	for _, tc := range allProtocols {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.ChurnSchedule(g, fault.ChurnOptions{Rounds: 60, Every: 6, Losses: 2}, 17)
			build := func(opt sim.EngineOption) *sim.Engine {
				e := sim.NewScalar(g, fuzzProtos(g.N(), tc.mk), inputs, gossip.Average, 17,
					sim.WithJoinFactory(tc.mk), opt)
				e.Run(sim.RunConfig{MaxRounds: 80, OnRound: plan.OnRound})
				e.Drain()
				return e
			}
			want := churnFingerprintOf(build(sim.WithShards(1)))
			for _, v := range layoutVariants() {
				e := build(v.opt)
				sameChurnFingerprint(t, v.label+" vs sequential", want, churnFingerprintOf(e))
				e.Close()
			}
		})
	}
}

// stepWithJoin steps e for rounds rounds, admitting node 63 of a
// 63-node tree at round 40: the join grows the last shard mid-run.
func stepWithJoin(e *sim.Engine, rounds int) {
	for r := 0; r < rounds; r++ {
		if e.Round() == 40 {
			e.JoinNode(63, 9.5, []int{5, 62})
		}
		e.Step()
	}
}

// TestPartitionSnapshotRoundTrip proves snapshots record no shard
// count: a snapshot taken mid-run on an 8-shard engine (63 nodes plus a
// joined one, so uneven shards and a grown last shard) restores into a
// 3-shard engine and continues byte-identically to the uninterrupted
// 8-shard run.
func TestPartitionSnapshotRoundTrip(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%17) + 0.125
	}
	mk := allProtocols[0].mk

	full := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 23, sim.WithShards(8), sim.WithJoinFactory(mk))
	half := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 23, sim.WithShards(8), sim.WithJoinFactory(mk))
	stepWithJoin(full, 100)
	stepWithJoin(half, 100)
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stepWithJoin(full, 100)
	want := churnFingerprintOf(full)

	restored := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 99, sim.WithShards(3), sim.WithJoinFactory(mk))
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.N() != n+1 {
		t.Fatalf("restored engine has %d nodes, want %d with the joined one", restored.N(), n+1)
	}
	stepWithJoin(restored, 100)
	if restored.Round() != full.Round() {
		t.Fatalf("restored run ends at round %d, uninterrupted at %d", restored.Round(), full.Round())
	}
	sameChurnFingerprint(t, "restore into P=3 from P=8", want, churnFingerprintOf(restored))
}

// lossyTreeLinks installs per-link loss on a band of parent→child edges
// of a heap-ordered binary tree. The band spans shard boundaries at every
// shard count from 5 up, so dropped messages exercise each delivery
// task's own recycling path, and the per-directed-link loss streams are
// drawn from more than one task.
func lossyTreeLinks(e *sim.Engine) {
	for i := 0; i < 6; i++ {
		e.SetLinkLoss(i, 2*i+1, 0.25)
		e.SetLinkLoss(i, 2*i+2, 0.4)
	}
}

// TestDeliveryPathFaultsAndLoss: serial (WithSerialDelivery) and
// parallel phase-2 delivery must be byte-identical to the sequential
// reference for every shard count in the grid, with a fault plan observed
// through the detector AND per-link loss active — the configuration
// where the per-destination tasks draw from loss streams and fold
// keepalives concurrently.
func TestDeliveryPathFaultsAndLoss(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	const crash = 9
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := allProtocols[0].mk // PCF
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, crash))

	build := func(opts ...sim.EngineOption) shardFingerprint {
		plan := fault.NewPlan(events...)
		eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			append(opts, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))...)
		defer eng.Close()
		lossyTreeLinks(eng)
		return fingerprintEngine(eng, 300, plan.OnRound)
	}

	want := build(sim.WithShards(1))
	if want.stats.Suspicions == 0 {
		t.Fatal("reference run registered no suspicions — fault plan inert")
	}
	for _, v := range layoutVariants() {
		sameFingerprint(t, v.label+"/parallel vs sequential", want, build(v.opt))
		sameFingerprint(t, v.label+"/serial vs sequential", want,
			build(v.opt, sim.WithSerialDelivery()))
	}
}

// TestDeliveryPathBatched: the same serial-vs-parallel delivery
// differential at value width k ∈ {1, 16} under per-link loss — wide
// messages make the per-destination recycling and inbox appends carry
// real payloads, and a k=16 run amplifies any divergence to 16
// components per node.
func TestDeliveryPathBatched(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	mk := allProtocols[0].mk
	for _, k := range []int{1, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			build := func(opts ...sim.EngineOption) shardFingerprint {
				eng := sim.New(g, fuzzProtos(n, mk), batchInputs(n, k), 13, opts...)
				defer eng.Close()
				lossyTreeLinks(eng)
				return fingerprintEngine(eng, 150, nil)
			}
			want := build(sim.WithShards(1))
			for _, v := range layoutVariants() {
				sameFingerprint(t, v.label+"/parallel vs sequential", want, build(v.opt))
				sameFingerprint(t, v.label+"/serial vs sequential", want,
					build(v.opt, sim.WithSerialDelivery()))
			}
		})
	}
}

// TestDeliveryPathChurn: open-world churn (joins, leaves, rewires,
// per-link loss on a changing overlay) across the shard-count grid, each
// count run with both delivery paths — teardown resyncs and roster
// changes land between rounds, so the per-destination tasks must see
// exactly the membership the serial merge saw.
func TestDeliveryPathChurn(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(31)
	inputs := churnInputs(g.N())
	mk := allProtocols[0].mk
	plan0 := func() *fault.Plan {
		return fault.ChurnSchedule(g, fault.ChurnOptions{Rounds: 60, Every: 6, Losses: 2}, 17)
	}
	build := func(opts ...sim.EngineOption) *sim.Engine {
		e := sim.NewScalar(g, fuzzProtos(g.N(), mk), inputs, gossip.Average, 17,
			append(opts, sim.WithJoinFactory(mk))...)
		e.Run(sim.RunConfig{MaxRounds: 80, OnRound: plan0().OnRound})
		e.Drain()
		return e
	}
	want := churnFingerprintOf(build(sim.WithShards(1)))
	for _, v := range layoutVariants() {
		e := build(v.opt)
		sameChurnFingerprint(t, v.label+"/parallel vs sequential", want, churnFingerprintOf(e))
		e.Close()
		e = build(v.opt, sim.WithSerialDelivery())
		sameChurnFingerprint(t, v.label+"/serial vs sequential", want, churnFingerprintOf(e))
		e.Close()
	}
}

// TestDeliverySnapshotRoundTrip crosses the second barrier with a
// snapshot: a run with per-link loss active and a joined node is
// snapshotted mid-run on an 8-shard engine using parallel delivery,
// restored into a 3-shard engine forced onto the serial delivery path
// (different seed at construction), and must continue byte-identically
// to the uninterrupted run — the directed loss-stream table in the
// snapshot is what makes the reordered draws land identically on both
// sides.
func TestDeliverySnapshotRoundTrip(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%19) + 0.375
	}
	mk := allProtocols[0].mk

	full := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 29, sim.WithShards(8), sim.WithJoinFactory(mk))
	half := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 29, sim.WithShards(8), sim.WithJoinFactory(mk))
	defer full.Close()
	defer half.Close()
	lossyTreeLinks(full)
	lossyTreeLinks(half)
	stepWithJoin(full, 60)
	stepWithJoin(half, 60)
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stepWithJoin(full, 60)
	want := churnFingerprintOf(full)

	restored := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 99,
		sim.WithShards(3), sim.WithSerialDelivery(), sim.WithJoinFactory(mk))
	defer restored.Close()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	stepWithJoin(restored, 60)
	if restored.Round() != full.Round() {
		t.Fatalf("restored run ends at round %d, uninterrupted at %d", restored.Round(), full.Round())
	}
	sameChurnFingerprint(t, "restore into serial-delivery P=3 from parallel P=8", want, churnFingerprintOf(restored))
}

// TestEngineCloseAndReuse: Close is idempotent and a closed engine
// transparently restarts its worker pool on the next parallel round.
func TestEngineCloseAndReuse(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i)
	}
	mk := allProtocols[0].mk
	eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 3, sim.WithShards(4))
	want := fingerprintEngine(eng, 50, nil)
	eng.Close()
	eng.Close() // idempotent
	eng.Reset(3)
	got := fingerprintEngine(eng, 50, nil) // pool restarts lazily
	sameFingerprint(t, "after Close+Reset", want, got)
	eng.Close()
}

// TestResetWithInputs: ResetWithInputs must behave exactly like a
// freshly constructed engine with the new inputs — including when the
// value width changes between reductions (the batched-caller pattern).
func TestResetWithInputs(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.Hypercube(4)
	n := g.N()
	mk := allProtocols[0].mk

	makeInit := func(width int, salt float64) []gossip.Value {
		init := make([]gossip.Value, n)
		for i := range init {
			v := gossip.NewValue(width)
			for k := range v.X {
				v.X[k] = salt + float64(i*width+k)
			}
			v.W = gossip.Average.InitialWeight(i)
			init[i] = v
		}
		return init
	}

	reused := sim.New(g, fuzzProtos(n, mk), makeInit(2, 0.5), 5, sim.WithShards(4))
	fingerprintEngine(reused, 60, nil) // advance, then rewind with new inputs

	for trial, width := range []int{2, 5, 1} {
		seed := int64(100 + trial)
		init := makeInit(width, float64(trial)+0.25)
		reused.ResetWithInputs(seed, init)
		fresh := sim.New(g, fuzzProtos(n, mk), init, seed, sim.WithShards(4))
		wantFP := fingerprintEngine(fresh, 120, nil)
		gotFP := fingerprintEngine(reused, 120, nil)
		sameFingerprint(t, fmt.Sprintf("width=%d reuse vs fresh", width), wantFP, gotFP)
	}
	reused.Close()
}
