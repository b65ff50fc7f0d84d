// Package pushflow implements the push-flow (PF) algorithm of Gansterer,
// Niederbrucker, Straková and Schulze Grotthoff — the fault-tolerant
// gossip reduction that the paper's push-cancel-flow algorithm improves
// upon. It follows the pseudocode of the paper's Figure 1 exactly.
//
// Instead of transferring mass like push-sum, every node i keeps one flow
// variable f(i,j) per neighbor j, representing the net mass that has
// flowed from i to j. A node's current local mass is
//
//	vᵢ − Σ_j f(i,j),
//
// and a send to neighbor k first adds half the local mass to f(i,k)
// ("virtual send") and then transmits the entire flow variable; the
// receiver overwrites its mirror variable with the negation,
// f(j,i) = −f(i,j), restoring flow conservation. Because every message
// carries the full flow state of its edge rather than a delta, loss,
// duplication or corruption of messages is healed by the next successful
// exchange, and a permanently failed component is excluded by zeroing the
// corresponding flow variables (paper Sec. II-A).
//
// The paper's Section II shows the price of this design: the flow
// variables converge to arbitrary, execution-dependent values that may
// exceed the aggregate by orders of magnitude, causing (a) floating-point
// cancellation that caps achievable accuracy as n grows (Fig. 3) and
// (b) restart-like convergence fall-backs when a flow is zeroed during
// failure handling (Fig. 4).
package pushflow

import (
	"pcfreduce/internal/gossip"
)

// Node is the push-flow state machine for a single node.
//
// Per-neighbor flow variables live in struct-of-arrays form, parallel
// to the neighbor list: each flow's X vector is a view into one shared
// backing array, so the hot local-mass computation (one pass over all
// flows per send) streams through contiguous memory without hashing.
// Nodes of degree ≤ denseScanMax find a sender by scanning the neighbor
// list; only larger neighborhoods build an id map.
type Node struct {
	id        int
	neighbors []int32
	live      []int32
	init      gossip.Value
	flowList  []gossip.Value // flow variable per neighbor; X views into backing
	backing   []float64      // flat flow payloads: deg·width floats
	idx       map[int32]int  // neighbor id → position; nil up to denseScanMax
	width     int
	scratch   gossip.Value // reused by FillMessage/EstimateInto
}

// New returns an uninitialized push-flow node; callers must Reset it.
func New() *Node { return &Node{} }

// denseScanMax bounds the neighborhood size up to which indexOf uses a
// linear scan of the neighbor list instead of the id map. For typical
// gossip degrees the scan is faster than hashing; complete-like graphs
// fall back to the map.
const denseScanMax = 32

// indexOf translates a neighbor id to its dense-slice position, or -1
// when the id is not a neighbor.
func (n *Node) indexOf(neighbor int) int {
	t := int32(neighbor)
	if len(n.neighbors) <= denseScanMax {
		for k, j := range n.neighbors {
			if j == t {
				return k
			}
		}
		return -1
	}
	if k, ok := n.idx[t]; ok {
		return k
	}
	return -1
}

// Reset implements gossip.Protocol. A repeated Reset over the same
// neighborhood and value width zeroes the existing flow variables in
// place instead of reallocating them, so restarting a trial on a reused
// engine does not allocate.
func (n *Node) Reset(node int, neighbors []int32, init gossip.Value) {
	reuse := n.flowList != nil && n.width == init.Width() && sameInt32s(n.neighbors, neighbors)
	n.id = node
	n.neighbors = append(n.neighbors[:0], neighbors...)
	n.live = append(n.live[:0], neighbors...)
	n.init.Set(init)
	n.width = init.Width()
	if reuse {
		for k := range n.flowList {
			n.flowList[k].Zero()
		}
		return
	}
	deg := len(neighbors)
	n.backing = make([]float64, deg*n.width)
	n.flowList = make([]gossip.Value, deg)
	for k := range n.flowList {
		n.flowList[k].X = n.backing[k*n.width : (k+1)*n.width]
	}
	n.idx = nil
	if deg > denseScanMax {
		n.buildIndex()
	}
}

// buildIndex builds the neighbor id map from the neighbor list.
func (n *Node) buildIndex() {
	n.idx = make(map[int32]int, len(n.neighbors))
	for k, j := range n.neighbors {
		n.idx[j] = k
	}
}

// localInto computes the node's current mass vᵢ − Σ_j f(i,j) into dst
// without allocating (beyond growing dst once to the value width).
func (n *Node) localInto(dst *gossip.Value) {
	dst.Set(n.init)
	for k := range n.flowList {
		dst.SubInPlace(n.flowList[k])
	}
}

// FillMessage implements gossip.Protocol: virtual-send half the local
// mass into f(i,k), then physically send the whole flow variable.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	k := n.indexOf(target)
	if k < 0 {
		panic("pushflow: send to non-neighbor")
	}
	f := &n.flowList[k]
	n.localInto(&n.scratch)
	n.scratch.HalfInPlace()
	f.AddInPlace(n.scratch)
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C, msg.R = 0, 0
	msg.Flow1.Set(*f)
	msg.Flow2.X = msg.Flow2.X[:0]
	msg.Flow2.W = 0
}

// Receive implements gossip.Protocol: overwrite the mirror flow with the
// negation of the received one, f(i,j) ← −f(j,i).
func (n *Node) Receive(msg gossip.Message) {
	k := n.indexOf(msg.From)
	if k < 0 || msg.Flow1.Width() != n.width {
		return // unknown sender or malformed message
	}
	f := &n.flowList[k]
	if !msg.Flow1.Finite() {
		// Detectably corrupted payload (NaN/Inf, e.g. from an exponent
		// bit flip): discard. A discarded message is equivalent to a
		// lost one, which the flow exchange heals by design; folding a
		// non-finite value into a flow variable would instead poison
		// both endpoints irrecoverably.
		return
	}
	f.SetNeg(msg.Flow1)
}

// EstimateInto implements gossip.Protocol.
func (n *Node) EstimateInto(dst []float64) []float64 {
	n.localInto(&n.scratch)
	return n.scratch.EstimateInto(dst)
}

// OnLinkFailure implements gossip.Protocol: algorithmically exclude the
// failed link by zeroing its flow variable (paper Sec. II-A). This is
// precisely the operation whose uncontrolled impact on the local estimate
// causes PF's restart problem (Sec. II-C).
func (n *Node) OnLinkFailure(neighbor int) {
	if k := n.indexOf(neighbor); k >= 0 {
		n.flowList[k].Zero()
	}
	n.live = remove(n.live, int32(neighbor))
}

// OnLinkRecover implements gossip.Protocol: re-admit a neighbor
// evicted by OnLinkFailure. The flow variable restarts from zero — for
// PF the peer's mirror was (or will be, once it reintegrates us) zeroed
// too, and the first exchange overwrites both halves anyway, so the edge
// resumes plain push-flow immediately.
func (n *Node) OnLinkRecover(neighbor int) {
	k := n.indexOf(neighbor)
	if k < 0 || contains(n.live, int32(neighbor)) {
		return
	}
	n.flowList[k].Zero()
	n.live = append(n.live, int32(neighbor))
}

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.live }

// Flow implements gossip.Flows, exposing f(i,j) for tests and the bus
// worked example (paper Fig. 2).
func (n *Node) Flow(neighbor int) gossip.Value {
	if k := n.indexOf(neighbor); k >= 0 {
		return n.flowList[k].Clone()
	}
	return gossip.NewValue(n.width)
}

// FlowView implements gossip.FlowViewer: the non-cloning Flow used by
// the metrics anti-symmetry probe. The view aliases the node's flow
// backing and is valid only until its next state change.
func (n *Node) FlowView(neighbor int) (gossip.Value, bool) {
	if k := n.indexOf(neighbor); k >= 0 {
		return n.flowList[k], true
	}
	return gossip.Value{}, false
}

// LocalValueInto implements gossip.Protocol.
func (n *Node) LocalValueInto(dst *gossip.Value) { n.localInto(dst) }

// OnNeighborJoin implements gossip.Protocol: admit a brand-new
// neighbor with a zero-flow edge (mass-neutral by construction). The
// flow backing grows by one slot; all X views are rebuilt over the new
// backing. An edge recreated onto a neighbor we already know reduces to
// reintegration (zero-flow restart).
func (n *Node) OnNeighborJoin(neighbor int) {
	if n.indexOf(neighbor) >= 0 {
		n.OnLinkRecover(neighbor)
		return
	}
	deg := len(n.neighbors)
	grown := make([]float64, (deg+1)*n.width)
	copy(grown, n.backing)
	n.backing = grown
	n.neighbors = append(n.neighbors, int32(neighbor))
	n.flowList = append(n.flowList, gossip.Value{})
	for k := range n.flowList {
		n.flowList[k].X = n.backing[k*n.width : (k+1)*n.width]
	}
	if n.idx != nil {
		n.idx[int32(neighbor)] = deg
	} else if len(n.neighbors) > denseScanMax {
		n.buildIndex()
	}
	n.live = append(n.live, int32(neighbor))
}

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into this node's own contribution. Flows
// are untouched, so the local estimate rises by exactly v.
func (n *Node) AbsorbMass(v gossip.Value) {
	n.init.AddInPlace(v)
}

func remove(list []int32, x int32) []int32 {
	out := list[:0]
	for _, v := range list {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func contains(list []int32, x int32) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// SetInput implements gossip.Protocol: live-monitoring input change.
// Flows are untouched; the local estimate shifts by the input delta and
// the network re-averages it.
func (n *Node) SetInput(v gossip.Value) {
	n.init.Set(v)
}
