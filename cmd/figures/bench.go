package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pcfreduce/internal/checkpoint"
	"pcfreduce/internal/core"
	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/experiments"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// simBaselines are the pre-optimization reference timings of the
// simulator hot path (one synchronous round plus the oracle error scan
// on an n=1024 hypercube, Intel Xeon @ 2.70GHz), recorded before the
// allocation-free fast path and dense-slice protocol state landed.
// Speedups in BENCH_sim.json are computed against these.
var simBaselines = map[string]float64{
	"PCF":        606251,
	"PCF-robust": 892518,
	"PF":         632415,
	"push-sum":   233779,
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BaselineNs  float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`
}

// scalingEntry is one point of the n-scaling series: the same PCF round
// on the sequential executor and on the sharded one. GoMaxProcs records
// the core budget the row was measured under — a sharded_speedup above 1
// with gomaxprocs=1 is a schedule win (no shuffle pass), not parallel
// scaling, and the gate uses the field to grant leniency when it runs
// on fewer cores than the recorder.
type scalingEntry struct {
	Topology          string  `json:"topology"`
	N                 int     `json:"n"`
	Shards            int     `json:"shards"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	SequentialNsPerOp float64 `json:"sequential_ns_per_op"`
	ShardedNsPerOp    float64 `json:"sharded_ns_per_op"`
	Speedup           float64 `json:"sharded_speedup"`
	ShardedAllocsOp   int64   `json:"sharded_allocs_per_op"`
}

// footprintEntry records the CSR adjacency cost of one topology family
// at n ≈ 2^20 (see BenchmarkFootprint in internal/topology for the
// testing.B.ReportMetric counterpart).
type footprintEntry struct {
	Family       string  `json:"family"`
	N            int     `json:"n"`
	Edges        int     `json:"edges"`
	BytesPerNode float64 `json:"graph_bytes_per_node"`
}

type millionEntry struct {
	Topology    string  `json:"topology"`
	N           int     `json:"n"`
	Algorithm   string  `json:"algorithm"`
	Shards      int     `json:"shards"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	StepNsPerOp float64 `json:"step_ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// kValueEntry is one row of the k-value batching series: the per-round
// cost of ONE width-k engine (k values reduced together) against k
// independent width-1 rounds of the same algorithm on the same graph.
// batched_speedup = k·scalar_ns / batched_ns; it is a same-machine
// ratio, so unlike raw ns it transfers across hosts and core counts,
// which is what lets the gate hold it to a floor.
type kValueEntry struct {
	Topology          string  `json:"topology"`
	N                 int     `json:"n"`
	Algorithm         string  `json:"algorithm"`
	K                 int     `json:"k"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	ScalarNsPerRound  float64 `json:"scalar_ns_per_round"`
	BatchedNsPerRound float64 `json:"batched_ns_per_round"`
	BatchedSpeedup    float64 `json:"batched_speedup"`
}

// dmgsBatchEntry compares the classic dmGS reduction schedule (2m−1
// scalar-family reductions per factorization) against the batched one
// (m fused width-(m−k) reductions) end to end: wall clock, reduction
// count and total gossip rounds. The round counts are deterministic for
// a fixed seed, so the gate re-derives and pins them exactly; the wall
// clock is the headline "k-batching makes QR cheaper" number.
type dmgsBatchEntry struct {
	Topology           string  `json:"topology"`
	N                  int     `json:"n"`
	M                  int     `json:"m"`
	Seed               int64   `json:"seed"`
	GoMaxProcs         int     `json:"gomaxprocs"`
	LegacyReductions   int     `json:"legacy_reductions"`
	BatchedReductions  int     `json:"batched_reductions"`
	LegacyTotalRounds  int     `json:"legacy_total_rounds"`
	BatchedTotalRounds int     `json:"batched_total_rounds"`
	LegacyMs           float64 `json:"legacy_ms"`
	BatchedMs          float64 `json:"batched_ms"`
	WallClockSpeedup   float64 `json:"wall_clock_speedup"`
}

// phase2Entry is one row of the phase-2 delivery series: the same
// sharded PCF round with delivery forced inline on the merging goroutine
// (WithSerialDelivery — the pre-parallel behavior) against the default
// parallel per-destination delivery tasks. delivery_speedup =
// serial_ns / parallel_ns; both sides are measured on the SAME host, so
// the ratio transfers across machines the way the k-batching one does,
// and the gate holds it to a floor. On a single-core host the engine
// runs delivery inline either way, so the ratio sits near 1.0 there.
type phase2Entry struct {
	Topology         string  `json:"topology"`
	N                int     `json:"n"`
	Shards           int     `json:"shards"`
	GoMaxProcs       int     `json:"gomaxprocs"`
	SerialNsPerOp    float64 `json:"serial_delivery_ns_per_op"`
	ParallelNsPerOp  float64 `json:"parallel_delivery_ns_per_op"`
	DeliverySpeedup  float64 `json:"delivery_speedup"`
	ParallelAllocsOp int64   `json:"parallel_allocs_per_op"`

	// Phase-time breakdown from a short flight-recorder run on the same
	// engine configuration: summed per-shard task time per round for the
	// two parallel fan-outs, plus the caller's summed barrier wait.
	// Wall-clock measurements, so informational (the gate does not pin
	// them) — they attribute the ns/op above to phases, which is what
	// turns a delivery_speedup regression into a diagnosis.
	ActivateNsPerRound float64 `json:"activate_ns_per_round,omitempty"`
	DeliverNsPerRound  float64 `json:"deliver_ns_per_round,omitempty"`
	BarrierNsPerRound  float64 `json:"barrier_wait_ns_per_round,omitempty"`
}

// snapshotCost records what a full-state checkpoint costs at
// million-node scale: Engine.Snapshot (flat-slice copies of the
// struct-of-arrays protocol state, RNG streams and in-flight messages)
// and checkpoint.Encode (the versioned binary codec), in ns per op,
// plus the encoded size. The encoded bytes are deterministic for a
// fixed seed, warmup and algorithm, so the gate can hold them to a
// tight bound while the timings get a memcpy-noise budget.
type snapshotCost struct {
	Topology        string  `json:"topology"`
	N               int     `json:"n"`
	Algorithm       string  `json:"algorithm"`
	Shards          int     `json:"shards"`
	WarmupRounds    int     `json:"warmup_rounds"`
	SnapshotNsPerOp float64 `json:"snapshot_ns_per_op"`
	EncodeNsPerOp   float64 `json:"encode_ns_per_op"`
	EncodedBytes    int     `json:"encoded_bytes"`
	BytesPerNode    float64 `json:"encoded_bytes_per_node"`
}

type benchReport struct {
	Description string `json:"description"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Note        string `json:"note,omitempty"`

	// HotPath is the original per-algorithm series on the n=1024
	// hypercube (sequential executor), with speedups against the
	// pre-optimization baselines.
	HotPathTopology string       `json:"hot_path_topology"`
	HotPathN        int          `json:"hot_path_n"`
	Benchmarks      []benchEntry `json:"benchmarks"`

	// NScaling compares the sequential and sharded executors on growing
	// hypercubes; MillionNode is one n=10^6 torus round; Footprint is
	// the CSR bytes/node table at n≈2^20.
	NScaling    []scalingEntry   `json:"n_scaling,omitempty"`
	MillionNode *millionEntry    `json:"million_node,omitempty"`
	Footprint   []footprintEntry `json:"memory_footprint,omitempty"`

	// KValueBatching measures reducing k values in one width-k run
	// against k scalar runs; DmgsBatching is the end-to-end dmGS
	// payoff.
	KValueBatching []kValueEntry   `json:"k_value_batching,omitempty"`
	DmgsBatching   *dmgsBatchEntry `json:"dmgs_batching,omitempty"`

	// Phase2Delivery compares serial (inline) against parallel
	// per-destination phase-2 delivery on the same sharded engine,
	// recorded by -bench-phase2 and held to a ratio floor by -bench-gate.
	Phase2Delivery []phase2Entry `json:"phase2_delivery,omitempty"`

	// SnapshotCost is the checkpoint subsystem's price tag, recorded by
	// -bench-snapshot and re-checked by -bench-gate.
	SnapshotCost *snapshotCost `json:"snapshot_cost,omitempty"`
}

// bestOf3 runs fn as a testing.Benchmark three times. Time is the
// fastest rep's — the standard noise-robust estimate on shared machines
// — but allocations are the median rep's: at the tiny b.N of a slow op
// one rep's allocs/op swings widely, and the fastest rep is often one
// that happened not to allocate.
// The result is the fastest rep with MemAllocs and MemBytes rescaled so
// that AllocsPerOp and AllocedBytesPerOp return the medians.
func bestOf3(fn func(b *testing.B)) testing.BenchmarkResult {
	var reps [3]testing.BenchmarkResult
	var allocs, bytes [3]int64
	best := 0
	for i := range reps {
		reps[i] = testing.Benchmark(fn)
		allocs[i], bytes[i] = reps[i].AllocsPerOp(), reps[i].AllocedBytesPerOp()
		if reps[i].NsPerOp() < reps[best].NsPerOp() {
			best = i
		}
	}
	r := reps[best]
	r.MemAllocs = uint64(median3(allocs) * int64(r.N))
	r.MemBytes = uint64(median3(bytes) * int64(r.N))
	return r
}

// median3 is the middle value of three.
func median3(x [3]int64) int64 {
	return max(min(x[0], x[1]), min(max(x[0], x[1]), x[2]))
}

// benchRound measures one Step+Errors round of a warmed-up engine (the
// warmup lets inbox and free-list high-water marks settle, so the
// steady-state numbers are not polluted by one-time growth). 96 rounds:
// the P² delivery buckets of the parallel phase-2 executor settle their
// high-water marks more slowly than the old P flat outboxes did, and an
// unsettled warmup leaks amortized slice growth into allocs/op, which
// the gate pins.
func benchRound(e *sim.Engine) testing.BenchmarkResult {
	for r := 0; r < 96; r++ {
		e.Step()
		e.Errors()
	}
	return bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Step()
			e.Errors()
		}
	})
}

// vecInputs builds n width-k input vectors whose component c is the
// scalar UniformInputs series with seed+c — k unrelated reductions
// riding in one engine, the batching scenario.
func vecInputs(n, k int, seed int64) []gossip.Value {
	cols := make([][]float64, k)
	for c := range cols {
		cols[c] = experiments.UniformInputs(n, seed+int64(c))
	}
	init := make([]gossip.Value, n)
	for i := range init {
		v := gossip.NewValue(k)
		for c := 0; c < k; c++ {
			v.X[c] = cols[c][i]
		}
		v.W = gossip.Average.InitialWeight(i)
		init[i] = v
	}
	return init
}

// measureKRound measures one Step+Errors round of a width-k PCF engine
// on g, in ns. Shared between -bench-json, -bench-gate and -bench-smoke
// so all three time exactly the same operation.
func measureKRound(g *topology.Graph, k int, seed int64) float64 {
	n := g.N()
	e := sim.New(g, experiments.PCF.Protos(n), vecInputs(n, k, seed), seed)
	defer e.Close()
	return float64(benchRound(e).NsPerOp())
}

// measureDmgsBatching factorizes one fixed 64×8 matrix on the
// 6-hypercube with the classic and the batched dmGS schedule (best of
// three wall-clock runs each). The reduction and round counts are
// seed-deterministic, which is what lets the gate pin them bitwise.
func measureDmgsBatching(seed int64) *dmgsBatchEntry {
	g := topology.Hypercube(6)
	const m = 8
	v := linalg.Random(g.N(), m, seed)
	run := func(batched bool) (dmgs.Result, float64) {
		var res dmgs.Result
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			cfg := dmgs.Config{
				Topology:    g,
				NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
				Eps:         1e-15,
				MaxRounds:   3000,
				StallRounds: 60,
				Seed:        seed,
				Batched:     batched,
			}
			start := time.Now()
			r, err := dmgs.Factorize(v, cfg)
			if err != nil {
				fatal(err)
			}
			if el := float64(time.Since(start).Nanoseconds()); el < best {
				best = el
				res = r
			}
		}
		return res, best
	}
	legacy, legacyNs := run(false)
	batched, batchedNs := run(true)
	return &dmgsBatchEntry{
		Topology:           g.Name(),
		N:                  g.N(),
		M:                  m,
		Seed:               seed,
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		LegacyReductions:   legacy.Reductions,
		BatchedReductions:  batched.Reductions,
		LegacyTotalRounds:  legacy.TotalRounds,
		BatchedTotalRounds: batched.TotalRounds,
		LegacyMs:           legacyNs / 1e6,
		BatchedMs:          batchedNs / 1e6,
		WallClockSpeedup:   legacyNs / batchedNs,
	}
}

// writeBenchJSON measures the simulator hot path — the per-algorithm
// series on the n=1024 hypercube, the sequential-vs-sharded n-scaling
// series, one n=10^6 torus round, and the CSR bytes/node table — and
// writes the results to the given JSON file.
func writeBenchJSON(path string, seed int64, shards int) {
	g := topology.Hypercube(10)
	rep := benchReport{
		Description:     "simulator hot path: one synchronous round + oracle error scan per op",
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		HotPathTopology: g.Name(),
		HotPathN:        g.N(),
	}
	// Re-recording the hot path must not silently drop the baselines
	// recorded by the other subcommands (-bench-snapshot, -bench-phase2).
	if raw, err := os.ReadFile(path); err == nil {
		var old benchReport
		if json.Unmarshal(raw, &old) == nil {
			rep.SnapshotCost = old.SnapshotCost
			rep.Phase2Delivery = old.Phase2Delivery
		}
	}
	if rep.GoMaxProcs < shards {
		rep.Note = fmt.Sprintf(
			"recorded with GOMAXPROCS=%d < %d shards: shard workers cannot run concurrently, so sharded_speedup reflects only the phase-split model's sequential gains (no shuffle pass, ascending-id streaming); rerun -bench-json on a multicore host to measure parallel scaling",
			rep.GoMaxProcs, shards)
	}
	inputs := experiments.UniformInputs(g.N(), seed)
	for _, al := range []experiments.Algorithm{
		experiments.PCF, experiments.PCFRobust, experiments.PushFlow, experiments.PushSum,
	} {
		e := sim.NewScalar(g, al.Protos(g.N()), inputs, gossip.Average, seed)
		best := benchRound(e)
		ent := benchEntry{
			Name:        al.Name,
			NsPerOp:     float64(best.NsPerOp()),
			BytesPerOp:  best.AllocedBytesPerOp(),
			AllocsPerOp: best.AllocsPerOp(),
		}
		if base, ok := simBaselines[al.Name]; ok {
			ent.BaselineNs = base
			ent.Speedup = base / ent.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, ent)
		fmt.Fprintf(os.Stderr, "bench %-10s %10.0f ns/op  %3d allocs/op  %.2fx\n",
			al.Name, ent.NsPerOp, ent.AllocsPerOp, ent.Speedup)
	}

	// n-scaling: the same PCF round, sequential vs sharded, on growing
	// hypercubes up to n = 2^17.
	for _, dim := range []int{10, 12, 14, 17} {
		sg := topology.Hypercube(dim)
		n := sg.N()
		in := experiments.UniformInputs(n, seed)
		seq := benchRound(sim.NewScalar(sg, experiments.PCF.Protos(n), in, gossip.Average, seed))
		shd := benchRound(sim.NewScalar(sg, experiments.PCF.Protos(n), in, gossip.Average, seed,
			sim.WithShards(shards)))
		ent := scalingEntry{
			Topology:          sg.Name(),
			N:                 n,
			Shards:            shards,
			GoMaxProcs:        rep.GoMaxProcs,
			SequentialNsPerOp: float64(seq.NsPerOp()),
			ShardedNsPerOp:    float64(shd.NsPerOp()),
			Speedup:           float64(seq.NsPerOp()) / float64(shd.NsPerOp()),
			ShardedAllocsOp:   shd.AllocsPerOp(),
		}
		rep.NScaling = append(rep.NScaling, ent)
		fmt.Fprintf(os.Stderr, "scale %-16s n=%-7d seq %12.0f ns/op  sharded(%d) %12.0f ns/op  %.2fx\n",
			ent.Topology, n, ent.SequentialNsPerOp, shards, ent.ShardedNsPerOp, ent.Speedup)
	}

	// k-value batching: one width-k round vs k width-1 rounds on the
	// n=1024 hypercube. The scalar reference is measured once through
	// the same sim.New construction path as the batched engines.
	kg := topology.Hypercube(10)
	scalarNs := measureKRound(kg, 1, seed)
	for _, k := range []int{1, 4, 16} {
		batchedNs := scalarNs
		if k > 1 {
			batchedNs = measureKRound(kg, k, seed)
		}
		ent := kValueEntry{
			Topology:          kg.Name(),
			N:                 kg.N(),
			Algorithm:         experiments.PCF.Name,
			K:                 k,
			GoMaxProcs:        rep.GoMaxProcs,
			ScalarNsPerRound:  scalarNs,
			BatchedNsPerRound: batchedNs,
			BatchedSpeedup:    float64(k) * scalarNs / batchedNs,
		}
		rep.KValueBatching = append(rep.KValueBatching, ent)
		fmt.Fprintf(os.Stderr, "k-batch k=%-3d scalar %10.0f ns/round  batched %10.0f ns/round  %.2fx\n",
			k, ent.ScalarNsPerRound, ent.BatchedNsPerRound, ent.BatchedSpeedup)
	}

	// End-to-end dmGS: classic 2m−1-reduction schedule vs m fused ones.
	rep.DmgsBatching = measureDmgsBatching(seed)
	db := rep.DmgsBatching
	fmt.Fprintf(os.Stderr, "dmgs %s m=%d: legacy %d reductions/%d rounds/%.0f ms, batched %d/%d/%.0f ms, %.2fx\n",
		db.Topology, db.M, db.LegacyReductions, db.LegacyTotalRounds, db.LegacyMs,
		db.BatchedReductions, db.BatchedTotalRounds, db.BatchedMs, db.WallClockSpeedup)

	// Million-node round: one PCF Step+Errors on the 100x100x100 torus.
	mg := topology.Torus3D(100, 100, 100)
	mn := mg.N()
	me := sim.NewScalar(mg, experiments.PCF.Protos(mn), experiments.UniformInputs(mn, seed),
		gossip.Average, seed, sim.WithShards(shards))
	mr := benchRound(me)
	rep.MillionNode = &millionEntry{
		Topology:    mg.Name(),
		N:           mn,
		Algorithm:   experiments.PCF.Name,
		Shards:      shards,
		GoMaxProcs:  rep.GoMaxProcs,
		StepNsPerOp: float64(mr.NsPerOp()),
		AllocsPerOp: mr.AllocsPerOp(),
	}
	fmt.Fprintf(os.Stderr, "million-node %s: %.1f ms/round, %d allocs/op\n",
		mg.Name(), rep.MillionNode.StepNsPerOp/1e6, mr.AllocsPerOp())

	// CSR footprint at n ≈ 2^20 per topology family.
	for _, fg := range []*topology.Graph{
		topology.Hypercube(20),
		topology.Torus3D(128, 128, 64),
		topology.Grid2D(1024, 1024),
		topology.Ring(1 << 20),
		topology.Path(1 << 20),
	} {
		n := fg.N()
		edges := 0
		for i := 0; i < n; i++ {
			edges += fg.Degree(i)
		}
		edges /= 2
		rep.Footprint = append(rep.Footprint, footprintEntry{
			Family:       fg.Name(),
			N:            n,
			Edges:        edges,
			BytesPerNode: float64(fg.FootprintBytes()) / float64(n),
		})
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// snapshotWarmupRounds is how many rounds the engine runs before the
// snapshot is taken. Kept small and fixed so the in-flight message
// state — and with it the encoded byte count — is identical between the
// recording host and the gate.
const snapshotWarmupRounds = 8

// measureSnapshotCost benchmarks Engine.Snapshot and checkpoint.Encode
// on the million-node torus after a fixed warmup. Shared between
// -bench-snapshot (recording) and -bench-gate (regression check) so
// both measure exactly the same operation.
func measureSnapshotCost(seed int64, shards int) *snapshotCost {
	runtime.GC() // shed any earlier benchmark's heap before the ~400 MB working set
	g := topology.Torus3D(100, 100, 100)
	n := g.N()
	e := sim.NewScalar(g, experiments.PCF.Protos(n), experiments.UniformInputs(n, seed),
		gossip.Average, seed, sim.WithShards(shards))
	for r := 0; r < snapshotWarmupRounds; r++ {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		fatal(err)
	}
	snapRes := bestOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if snap, err = e.Snapshot(); err != nil {
				fatal(err)
			}
		}
	})
	var blob []byte
	encRes := bestOf3(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blob = checkpoint.Encode(&checkpoint.Checkpoint{Snap: snap})
		}
	})
	return &snapshotCost{
		Topology:        g.Name(),
		N:               n,
		Algorithm:       experiments.PCF.Name,
		Shards:          shards,
		WarmupRounds:    snapshotWarmupRounds,
		SnapshotNsPerOp: float64(snapRes.NsPerOp()),
		EncodeNsPerOp:   float64(encRes.NsPerOp()),
		EncodedBytes:    len(blob),
		BytesPerNode:    float64(len(blob)) / float64(n),
	}
}

// runBenchSnapshot measures the million-node snapshot cost and merges
// it into the existing bench JSON, leaving every other recorded number
// untouched (the hot-path and scaling baselines were recorded
// separately and must not shift when only the checkpoint subsystem is
// re-benchmarked).
func runBenchSnapshot(path string, seed int64, shards int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	sc := measureSnapshotCost(seed, shards)
	rep.SnapshotCost = sc
	fmt.Fprintf(os.Stderr, "snapshot %s n=%d: Snapshot %.1f ms, Encode %.1f ms, %d bytes (%.1f B/node)\n",
		sc.Topology, sc.N, sc.SnapshotNsPerOp/1e6, sc.EncodeNsPerOp/1e6, sc.EncodedBytes, sc.BytesPerNode)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// measurePhase2Row measures one topology's sharded PCF round twice —
// delivery forced serial, then the default parallel per-destination
// tasks — and returns the row. The engines are built and torn down one
// at a time (with a GC in between) so the 2^20 row's two ~GB working
// sets never coexist.
func measurePhase2Row(g *topology.Graph, seed int64, shards int) phase2Entry {
	n := g.N()
	measure := func(opts ...sim.EngineOption) testing.BenchmarkResult {
		runtime.GC()
		in := experiments.UniformInputs(n, seed)
		e := sim.NewScalar(g, experiments.PCF.Protos(n), in, gossip.Average, seed,
			append([]sim.EngineOption{sim.WithShards(shards)}, opts...)...)
		defer e.Close()
		return benchRound(e)
	}
	serial := measure(sim.WithSerialDelivery())
	par := measure()
	row := phase2Entry{
		Topology:         g.Name(),
		N:                n,
		Shards:           shards,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		SerialNsPerOp:    float64(serial.NsPerOp()),
		ParallelNsPerOp:  float64(par.NsPerOp()),
		DeliverySpeedup:  float64(serial.NsPerOp()) / float64(par.NsPerOp()),
		ParallelAllocsOp: par.AllocsPerOp(),
	}
	// Short flight-recorder run for the phase breakdown. Separate from
	// the benchmark engines above so timing never contaminates the
	// gated ns/op numbers.
	const breakdownRounds = 32
	runtime.GC()
	rec := metrics.New(metrics.Config{Shards: shards, Interval: 1 << 30, Timing: true})
	e := sim.NewScalar(g, experiments.PCF.Protos(n), experiments.UniformInputs(n, seed),
		gossip.Average, seed, sim.WithShards(shards))
	e.SetMetrics(rec)
	for r := 0; r < breakdownRounds; r++ {
		e.Step()
	}
	e.Close()
	merged := rec.MergedTiming()
	row.ActivateNsPerRound = float64(merged.Hist(metrics.PhaseActivate).SumNs) / breakdownRounds
	row.DeliverNsPerRound = float64(merged.Hist(metrics.PhaseDeliver).SumNs) / breakdownRounds
	row.BarrierNsPerRound = float64(merged.Hist(metrics.PhaseBarrierActivate).SumNs+
		merged.Hist(metrics.PhaseBarrierDeliver).SumNs) / breakdownRounds
	return row
}

// phase2Families are the topologies of the phase-2 delivery series: a
// 2^15 hypercube (small enough for the gate to re-measure) and a 2^20
// torus (the cross-shard-heavy row where bucketed delivery pays off).
func phase2Families() []*topology.Graph {
	return []*topology.Graph{
		topology.Hypercube(15),
		topology.Torus2D(1024, 1024),
	}
}

// runBenchPhase2 measures the serial-vs-parallel phase-2 delivery series
// and merges it into the existing bench JSON.
func runBenchPhase2(path string, seed int64, shards int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	rep.Phase2Delivery = nil
	for _, g := range phase2Families() {
		row := measurePhase2Row(g, seed, shards)
		rep.Phase2Delivery = append(rep.Phase2Delivery, row)
		fmt.Fprintf(os.Stderr, "phase2 %-16s n=%-8d serial %12.0f ns/op  parallel(%d) %12.0f ns/op  %.2fx\n",
			row.Topology, row.N, row.SerialNsPerOp, shards, row.ParallelNsPerOp, row.DeliverySpeedup)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
