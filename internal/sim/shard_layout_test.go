package sim

import (
	"testing"
	"unsafe"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// block is a byte range's span of 128-byte blocks, [lo, hi].
type block struct{ lo, hi uintptr }

func blocksOf(p unsafe.Pointer, size uintptr) block {
	a := uintptr(p)
	return block{a / shardBlock, (a + size - 1) / shardBlock}
}

// TestShardLocalLayout pins the false-sharing rule of shardLocal: its
// size is a whole number of 128-byte blocks with more than a block of
// padding, and on real engines no two shards' scratch headers — nor
// their bucket, cursor and estimate rows — touch the same block.
func TestShardLocalLayout(t *testing.T) {
	size, hot := unsafe.Sizeof(shardLocal{}), unsafe.Sizeof(shardScratch{})
	if size%shardBlock != 0 {
		t.Fatalf("shardLocal is %d bytes, not a multiple of %d", size, shardBlock)
	}
	if size-hot <= shardBlock {
		t.Fatalf("shardLocal pads %d bytes after %d hot bytes; need more than %d", size-hot, hot, shardBlock)
	}
	g := topology.Hypercube(6)
	for _, p := range []int{2, 3, 8, 13} {
		protos := make([]gossip.Protocol, g.N())
		for i := range protos {
			protos[i] = core.NewEfficient()
		}
		e := NewScalar(g, protos, make([]float64, g.N()), gossip.Average, 1, WithShards(p))
		local := e.shard.local
		spans := make([][]block, p)
		for s := range local {
			sl := &local[s]
			spans[s] = []block{
				blocksOf(unsafe.Pointer(&sl.shardScratch), hot),
				blocksOf(unsafe.Pointer(unsafe.SliceData(sl.bucket)), uintptr(len(sl.bucket))*unsafe.Sizeof(sl.bucket[0])),
				blocksOf(unsafe.Pointer(unsafe.SliceData(sl.dcur)), uintptr(len(sl.dcur))*unsafe.Sizeof(sl.dcur[0])),
				blocksOf(unsafe.Pointer(unsafe.SliceData(sl.est)), uintptr(len(sl.est))*unsafe.Sizeof(sl.est[0])),
			}
		}
		for s := range spans {
			for u := s + 1; u < p; u++ {
				for _, a := range spans[s] {
					for _, b := range spans[u] {
						if a.lo <= b.hi && b.lo <= a.hi {
							t.Fatalf("P=%d: shards %d and %d share a 128-byte block (%v vs %v)", p, s, u, a, b)
						}
					}
				}
			}
		}
	}
}
