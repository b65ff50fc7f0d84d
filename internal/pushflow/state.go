package pushflow

// Checkpoint support (gossip.Protocol.SaveState and LoadState):
// push-flow's mutable state is the input value, the flat flow backing
// plus per-flow weights, and the live list, serialized verbatim to
// preserve the engine's target-draw indexing across a restore.
// Scratch is fully overwritten before every use and is not saved.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	w.PutF64s(n.backing)
	for k := range n.flowList {
		w.PutF64(n.flowList[k].W)
	}
	w.PutI32s(n.live)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.init)
	if xs := r.F64s(len(n.backing)); xs != nil {
		copy(n.backing, xs)
	}
	for k := range n.flowList {
		n.flowList[k].W = r.F64()
	}
	n.live = append(n.live[:0], r.I32s()...)
}
