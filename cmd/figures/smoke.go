package main

import (
	"fmt"
	"os"
	"runtime"

	"pcfreduce/internal/experiments"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// runBenchSmoke is the fast CI check for the multicore/batching work —
// seconds, not minutes, and every assertion is machine-independent so
// it can run unpinned on any runner:
//
//  1. Layout identity: the same width-4 run on WithShards(1), contiguous
//     WithShards(4) and the cache-aware partition must agree bitwise on
//     every node and component after a fixed number of rounds.
//  2. k-value batching: one width-16 round must beat 16 scalar rounds
//     by ≥1.5× (same-host ratio).
//  3. Partition contract: on every bench family the cache-aware layout
//     validates against the cursor-merge invariants and never cuts more
//     edges than the contiguous baseline.
//  4. Delivery-path identity: the same run with phase-2 delivery forced
//     serial (WithSerialDelivery) and with the default parallel
//     per-destination tasks — under per-link loss and a cache-aware
//     layout — must agree bitwise on every node, so the parallel path
//     is provably a pure scheduling change on this very machine.
func runBenchSmoke(seed int64) {
	failed := false
	fmt.Printf("bench-smoke (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))

	// 1. Cross-layout differential at width 4 on a lattice, where the
	// BFS partitioner actually rearranges the shards.
	g := topology.Grid2D(32, 32)
	n := g.N()
	const rounds = 50
	const width = 4
	layouts := []struct {
		name string
		opts []sim.EngineOption
	}{
		{"shards=1", []sim.EngineOption{sim.WithShards(1)}},
		{"contiguous(4)", []sim.EngineOption{sim.WithShards(4)}},
		{"cache-aware(4)", []sim.EngineOption{sim.WithPartition(topology.CacheAware(g, 4))}},
	}
	var ref [][]float64
	for _, layout := range layouts {
		e := sim.New(g, experiments.PCF.Protos(n), vecInputs(n, width, seed), seed, layout.opts...)
		for r := 0; r < rounds; r++ {
			e.Step()
		}
		est := make([][]float64, n)
		for i := 0; i < n; i++ {
			est[i] = e.Protocol(i).EstimateInto(nil)
		}
		e.Close()
		if ref == nil {
			ref = est
			continue
		}
		for i := 0; i < n && !failed; i++ {
			for c := 0; c < width; c++ {
				if est[i][c] != ref[i][c] {
					fmt.Printf("FAIL: layout %s deviates from %s at node %d component %d: %.17g vs %.17g\n",
						layout.name, layouts[0].name, i, c, est[i][c], ref[i][c])
					failed = true
					break
				}
			}
		}
	}
	if !failed {
		fmt.Printf("  layout identity: %d layouts bitwise equal over %d width-%d rounds on %s\n",
			len(layouts), rounds, width, g.Name())
	}

	// 2. Batched-round speedup on a small hypercube.
	kg := topology.Hypercube(8)
	const k = 16
	scalarNs := measureKRound(kg, 1, seed)
	batchedNs := measureKRound(kg, k, seed)
	speedup := float64(k) * scalarNs / batchedNs
	fmt.Printf("  k-value batching k=%d on %s: %.2fx (scalar %.0f ns/round, batched %.0f ns/round)\n",
		k, kg.Name(), speedup, scalarNs, batchedNs)
	if speedup < kValueGateFloor {
		fmt.Printf("FAIL: width-%d round only %.2fx faster than %d scalar rounds (floor %.2fx)\n",
			k, speedup, k, kValueGateFloor)
		failed = true
	}

	// 3. Partitioner contract on the bench families.
	for _, row := range partitionQualityRows(8) {
		if row.CacheAwareCut > row.ContiguousCut {
			fmt.Printf("FAIL: cache-aware layout cuts %d edges on %s, contiguous cuts %d\n",
				row.CacheAwareCut, row.Topology, row.ContiguousCut)
			failed = true
		}
	}
	for _, pg := range []*topology.Graph{g, kg, topology.BinaryTree(127)} {
		for _, shards := range []int{2, 3, 8} {
			pt := topology.CacheAware(pg, shards)
			if err := pt.Validate(pg); err != nil {
				fmt.Printf("FAIL: cache-aware partition of %s into %d shards invalid: %v\n",
					pg.Name(), shards, err)
				failed = true
			}
		}
	}
	if !failed {
		fmt.Println("  partition contract: validated, cache-aware cut ≤ contiguous on every family")
	}

	// 4. Serial-vs-parallel delivery differential under per-link loss on
	// a cache-aware layout — the configuration where the parallel path's
	// per-destination tasks, k-way bucket merges and per-link loss
	// streams are all load-bearing. Loss rates go on a band of grid
	// links that crosses shard boundaries so dropped messages exercise
	// the per-destination recycling too.
	var dref [][]float64
	for _, mode := range []struct {
		name string
		opts []sim.EngineOption
	}{
		{"serial delivery", []sim.EngineOption{sim.WithPartition(topology.CacheAware(g, 4)), sim.WithSerialDelivery()}},
		{"parallel delivery", []sim.EngineOption{sim.WithPartition(topology.CacheAware(g, 4))}},
	} {
		e := sim.New(g, experiments.PCF.Protos(n), vecInputs(n, width, seed), seed, mode.opts...)
		for i := 40; i < 72; i++ {
			if i%32 == 31 {
				continue // row boundary: (i, i+1) is not a grid edge
			}
			e.SetLinkLoss(i, i+1, 0.3)
		}
		for r := 0; r < rounds; r++ {
			e.Step()
		}
		est := make([][]float64, n)
		for i := 0; i < n; i++ {
			est[i] = e.Protocol(i).EstimateInto(nil)
		}
		e.Close()
		if dref == nil {
			dref = est
			continue
		}
		mismatch := false
		for i := 0; i < n && !mismatch; i++ {
			for c := 0; c < width; c++ {
				if est[i][c] != dref[i][c] {
					fmt.Printf("FAIL: parallel delivery deviates from serial at node %d component %d: %.17g vs %.17g\n",
						i, c, est[i][c], dref[i][c])
					failed = true
					mismatch = true
					break
				}
			}
		}
	}
	if dref != nil && !failed {
		fmt.Printf("  delivery identity: serial and parallel phase-2 bitwise equal over %d lossy width-%d rounds on %s\n",
			rounds, width, g.Name())
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("bench-smoke OK")
}
