package pushsum

// Checkpoint support (gossip.Protocol.SaveState and LoadState):
// push-sum's entire mutable state is its mass, the last-seen input
// (for SetInput deltas) and the live list.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.mass)
	w.PutValue(n.lastInput)
	w.PutI32s(n.live)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.mass)
	r.Value(&n.lastInput)
	n.live = append(n.live[:0], r.I32s()...)
}
