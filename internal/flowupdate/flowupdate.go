// Package flowupdate implements the Flow Updating (FU) aggregation
// algorithm of Jesus, Baquero and Almeida (DAIS 2009), referenced by the
// paper as another fault-tolerant distributed reduction method ([7]) and
// compared against PF/PCF in the authors' companion ALENEX study ([23]).
//
// Like push-flow, FU exchanges idempotent per-edge flows so that message
// loss does not destroy mass. Unlike push-flow, a node does not push half
// of its mass; instead it averages its own estimate with the last
// estimates reported by its neighbors and adjusts the flow on each edge
// so that the neighbor's estimate would move to that average:
//
//	eᵢ   = vᵢ − Σ_j f(i,j)
//	A    = mean(eᵢ, ẽ_j for known neighbors j)
//	f(i,j) ← f(i,j) + (A − ẽ_j)
//
// and the message to j carries (f(i,j), A). This implementation is the
// asynchronous gossip form: each activation updates and ships the flow
// toward a single random neighbor, fitting the same engine and schedule
// model as the other protocols in this repository.
//
// FU natively computes averages; the (value, weight) encoding used
// throughout this repository extends it to arbitrary Σx/Σw aggregates:
// FU averages the x and w components independently and the estimate is
// the component ratio, since (Σx/n)/(Σw/n) = Σx/Σw.
package flowupdate

import (
	"fmt"

	"pcfreduce/internal/gossip"
)

// Node is the Flow-Updating state machine for a single node.
//
// Per-neighbor state lives in struct-of-arrays form, parallel to the
// neighbor list: the flow and last-estimate X vectors are views into one
// shared backing array, so the averaging pass (over all flows and known
// neighbor estimates per send) streams through contiguous memory without
// hashing. Nodes of degree ≤ denseScanMax find a sender by scanning the
// neighbor list; only larger neighborhoods build an id map.
type Node struct {
	id        int
	neighbors []int32
	live      []int32
	init      gossip.Value
	flowList  []gossip.Value // flow per neighbor; X views into backing
	lastEst   []gossip.Value // last estimate reported by each neighbor; views too
	known     []bool         // whether we have heard from the neighbor yet
	backing   []float64      // flat payloads: 2·deg·width floats (flows, then estimates)
	idx       map[int32]int  // neighbor id → position; nil up to denseScanMax
	width     int
	scrAvg    gossip.Value // reused by FillMessage (averaging target)
	scrDelta  gossip.Value // reused by FillMessage (flow adjustment)
	scrLocal  gossip.Value // reused by EstimateInto
}

// New returns an uninitialized Flow-Updating node; callers must Reset it.
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
// neighborhood and value width zeroes the existing per-edge state in
// place instead of reallocating it, so restarting a trial on a reused
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
			n.lastEst[k].Zero()
			n.known[k] = false
		}
		return
	}
	deg := len(neighbors)
	n.backing = make([]float64, 2*deg*n.width)
	n.flowList = make([]gossip.Value, deg)
	n.lastEst = make([]gossip.Value, deg)
	n.known = make([]bool, deg)
	for k := range n.flowList {
		n.flowList[k].X = n.backing[k*n.width : (k+1)*n.width]
		n.lastEst[k].X = n.backing[(deg+k)*n.width : (deg+k+1)*n.width]
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

// localInto computes eᵢ = vᵢ − Σ_j f(i,j) into dst without allocating
// (beyond growing dst once to the value width).
func (n *Node) localInto(dst *gossip.Value) {
	dst.Set(n.init)
	for k := range n.flowList {
		dst.SubInPlace(n.flowList[k])
	}
}

// averagedInto computes the FU averaging target A into dst: the mean of
// the local estimate and the last known estimates of live neighbors we
// have heard from. The sum runs in live-list order (not neighbor-index
// order): the two diverge once a reintegrated neighbor has been
// re-appended, and the floating-point result must not depend on the
// internal storage layout.
func (n *Node) averagedInto(dst *gossip.Value) {
	n.localInto(dst)
	count := 1.0
	for _, j := range n.live {
		k := n.indexOf(int(j))
		if !n.known[k] {
			continue
		}
		dst.AddInPlace(n.lastEst[k])
		count++
	}
	scale := 1 / count
	for k := range dst.X {
		dst.X[k] *= scale
	}
	dst.W *= scale
}

// FillMessage implements gossip.Protocol: move the target's estimate
// toward the local average by adjusting the edge flow, then ship the
// flow and the average.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	k := n.indexOf(target)
	if k < 0 {
		panic("flowupdate: send to non-neighbor")
	}
	f := &n.flowList[k]
	n.averagedInto(&n.scrAvg)
	// Before first contact the neighbor's estimate is unknown; ship the
	// current flow unchanged so the neighbor learns ours without a mass
	// transfer.
	if n.known[k] {
		n.scrDelta.Set(n.scrAvg)
		n.scrDelta.SubInPlace(n.lastEst[k])
		f.AddInPlace(n.scrDelta)
	}
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C, msg.R = 0, 0
	msg.Flow1.Set(*f)
	msg.Flow2.Set(n.scrAvg)
}

// Receive implements gossip.Protocol: adopt the sender's flow (negated)
// and remember its estimate.
func (n *Node) Receive(msg gossip.Message) {
	k := n.indexOf(msg.From)
	if k < 0 || msg.Flow1.Width() != n.width || msg.Flow2.Width() != n.width {
		return
	}
	if !msg.Flow1.Finite() || !msg.Flow2.Finite() {
		return // detectably corrupted payload: discard, as in push-flow
	}
	n.flowList[k].SetNeg(msg.Flow1)
	n.lastEst[k].Set(msg.Flow2)
	n.known[k] = true
}

// EstimateInto implements gossip.Protocol.
func (n *Node) EstimateInto(dst []float64) []float64 {
	n.localInto(&n.scrLocal)
	return n.scrLocal.EstimateInto(dst)
}

// OnLinkFailure implements gossip.Protocol: zero the edge flow, forget
// the neighbor's estimate and stop using the link.
func (n *Node) OnLinkFailure(neighbor int) {
	if k := n.indexOf(neighbor); k >= 0 {
		n.flowList[k].Zero()
		n.lastEst[k].Zero()
		n.known[k] = false
	}
	n.live = remove(n.live, int32(neighbor))
}

// OnLinkRecover implements gossip.Protocol: re-admit a neighbor
// evicted by OnLinkFailure. The edge restarts with a zero flow and no
// remembered estimate, exactly as after Reset; the averaging dynamics
// re-learn the neighbor's state from its next message.
func (n *Node) OnLinkRecover(neighbor int) {
	k := n.indexOf(neighbor)
	if k < 0 || contains(n.live, int32(neighbor)) {
		return
	}
	n.flowList[k].Zero()
	n.lastEst[k].Zero()
	n.known[k] = false
	n.live = append(n.live, int32(neighbor))
}

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.live }

// Flow implements gossip.Flows.
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
// neighbor with a zero flow and no remembered estimate (mass-neutral by
// construction). The backing stores flows then estimates, so growing
// the degree shifts the estimate region; both regions are copied into
// place and every view is rebuilt. An edge recreated onto a neighbor we
// already know reduces to reintegration.
func (n *Node) OnNeighborJoin(neighbor int) {
	if n.indexOf(neighbor) >= 0 {
		n.OnLinkRecover(neighbor)
		return
	}
	deg := len(n.neighbors)
	grown := make([]float64, 2*(deg+1)*n.width)
	copy(grown, n.backing[:deg*n.width])                   // flows
	copy(grown[(deg+1)*n.width:], n.backing[deg*n.width:]) // estimates
	n.backing = grown
	n.neighbors = append(n.neighbors, int32(neighbor))
	n.flowList = append(n.flowList, gossip.Value{})
	n.lastEst = append(n.lastEst, gossip.Value{})
	n.known = append(n.known, false)
	for k := range n.flowList {
		n.flowList[k].X = n.backing[k*n.width : (k+1)*n.width]
		n.lastEst[k].X = n.backing[(deg+1+k)*n.width : (deg+2+k)*n.width]
	}
	if n.idx != nil {
		n.idx[int32(neighbor)] = deg
	} else if len(n.neighbors) > denseScanMax {
		n.buildIndex()
	}
	n.live = append(n.live, int32(neighbor))
}

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into this node's own contribution.
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
// The width of a running reduction is fixed: SetInput panics if v's
// width differs from the node's.
func (n *Node) SetInput(v gossip.Value) {
	if v.Width() != n.width {
		panic(fmt.Sprintf("flowupdate: SetInput with width %d on a node of width %d", v.Width(), n.width))
	}
	n.init.Set(v)
}
