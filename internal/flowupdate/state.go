package flowupdate

// Checkpoint support (gossip.Protocol.SaveState and LoadState): Flow
// Updating's mutable state is the input value, the flat backing
// holding flows and last-reported neighbor estimates, their per-value
// weights, the known flags, and the live list. The live list must
// round-trip verbatim — averagedInto iterates it in order, so the
// floating-point averaging result depends on it. Scratch values are
// fully overwritten before every use and are not saved.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	w.PutF64s(n.backing)
	for k := range n.flowList {
		w.PutF64(n.flowList[k].W)
		w.PutF64(n.lastEst[k].W)
		w.PutBool(n.known[k])
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
		n.lastEst[k].W = r.F64()
		n.known[k] = r.Bool()
	}
	n.live = append(n.live[:0], r.I32s()...)
}
