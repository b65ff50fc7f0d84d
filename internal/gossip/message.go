package gossip

import "fmt"

// Kind classifies a message on the wire. The zero value is a plain data
// message, so protocol code that constructs messages field-by-field is
// unaffected; the non-zero kinds are engine-level control messages that
// are never handed to Protocol.Receive.
type Kind uint8

const (
	// KindData is a protocol payload message (the zero value).
	KindData Kind = iota
	// KindLinkDown notifies the receiver that the link to From has
	// permanently failed (oracle-style failure notification).
	KindLinkDown
	// KindKeepalive is a liveness beacon carrying no payload: engines
	// emit it on links that have been idle too long (and, at a lower
	// rate, toward suspected neighbors as reintegration probes) so that
	// failure detectors can tell silence from a quiet schedule.
	KindKeepalive
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindLinkDown:
		return "link-down"
	case KindKeepalive:
		return "keepalive"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is the single wire format shared by every reduction protocol in
// this repository. Keeping one concrete format (rather than per-protocol
// payload types behind an interface) lets the fault injectors corrupt
// arbitrary bits of any in-flight message without type switches, and
// keeps the hot simulation loop free of interface allocations.
//
// Field usage by protocol:
//
//	push-sum:        Flow1 = the transferred mass share
//	push-flow:       Flow1 = the sender's flow variable f(i,j)
//	push-cancel-flow: Flow1/Flow2 = the two flow slots, C = active slot
//	                 index (1 or 2), R = role-change round counter
//	flow-updating:   Flow1 = flow f(i,j), Flow2.X = sender's estimate,
//	                 Flow2.W = sender's weight estimate
//
// Kind distinguishes data messages from engine control messages; only
// KindData messages reach Protocol.Receive.
type Message struct {
	From, To int
	Kind     Kind
	Flow1    Value
	Flow2    Value
	C        uint8
	R        uint64
}

// Clone returns a deep copy of m, so that corrupting a delivered copy
// never aliases protocol-internal state.
func (m Message) Clone() Message {
	cp := m
	cp.Flow1 = m.Flow1.Clone()
	cp.Flow2 = m.Flow2.Clone()
	return cp
}

// String renders a compact debugging representation.
func (m Message) String() string {
	if m.Kind != KindData {
		return fmt.Sprintf("Message{%d→%d %s}", m.From, m.To, m.Kind)
	}
	return fmt.Sprintf("Message{%d→%d f1:%v f2:%v c:%d r:%d}",
		m.From, m.To, m.Flow1, m.Flow2, m.C, m.R)
}

// Protocol is the node-local state machine implemented by every reduction
// algorithm. One Protocol instance exists per node; the engines
// (internal/sim for deterministic rounds, internal/runtime for
// asynchronous goroutine execution) own the communication schedule and
// drive the instances. All four reduction protocols in this repository
// (push-sum, push-flow, push-cancel-flow and Flow Updating) implement
// the whole contract, so engines call every method directly.
//
// The engine — not the protocol — draws which neighbor a node pushes to
// in each activation. This guarantees that two different algorithms run
// with the same seed see bit-identical communication schedules, which the
// paper relies on when comparing PF and PCF failure handling (Figs. 4
// and 7 "initially used exactly the same random seed").
//
// Every read method is allocation-free: FillMessage, EstimateInto and
// LocalValueInto write into caller-owned buffers, so an engine can run a
// million nodes without per-node garbage.
type Protocol interface {
	// Reset (re)initializes the node with its id, immutable neighbor
	// list and initial (value, weight) pair. The neighbor list uses the
	// topology package's int32 node ids (a zero-copy CSR row may be
	// passed directly); the protocol must copy it if it retains it. It
	// must be callable repeatedly to support restarting experiments on
	// reused instances.
	Reset(node int, neighbors []int32, init Value)

	// FillMessage writes the message this node pushes to the given
	// neighbor now into msg, applying any local state updates the
	// protocol's send step prescribes (e.g. PF's "virtual send"
	// f ← f + e/2). The target must be one of the node's live
	// neighbors.
	//
	// msg is either a fresh Message{From, To} or a recycled,
	// engine-pooled one whose header, control pair and full-width flows
	// hold whatever its previous use left (a keepalive, another node's
	// push). Either way FillMessage writes the whole message: From (this
	// node), To, Kind (KindData), and C and R, which are zero unless the
	// protocol uses them. It fills the flows it uses through the
	// existing backing arrays (Value.Set / Value.CopyFrom) and
	// truncates any unused flow to zero width (msg.FlowN.X =
	// msg.FlowN.X[:0], W = 0), so that width checks and bit-flip
	// injectors see the same message whether msg was fresh or recycled.
	FillMessage(target int, msg *Message)

	// Receive processes a delivered message. The message may have been
	// corrupted or duplicated by fault injection; protocols must not
	// panic on malformed contents. Receive never keeps a reference to
	// the message's backing arrays: the engine recycles them as soon as
	// Receive returns.
	Receive(msg Message)

	// EstimateInto writes the node's current estimate of the global
	// aggregate (component-wise X/W of its local mass) into dst,
	// reusing its backing array when capacity suffices, and returns the
	// slice. EstimateInto(nil) allocates a fresh one.
	EstimateInto(dst []float64) []float64

	// LocalValueInto writes the node's current local mass (value and
	// weight), i.e. its initial data minus outstanding flows, into dst,
	// reusing dst's backing. Σ over all nodes of the local mass is the
	// conserved global mass when flow conservation holds.
	LocalValueInto(dst *Value)

	// OnLinkFailure informs the node that the link to the given neighbor
	// has permanently failed. The protocol excludes the neighbor from
	// the computation (for flow algorithms: zeroes the corresponding
	// flow variables, per Section II-A of the paper).
	OnLinkFailure(neighbor int)

	// OnLinkRecover undoes OnLinkFailure's exclusion, for self-healing
	// engines whose failure detector evicted a neighbor on suspicion
	// and sees its traffic resume (the suspicion was false, or the
	// outage was transient). The neighbor rejoins LiveNeighbors and the
	// per-edge flow state restarts from zero on both endpoints — a
	// fresh edge carries no mass, so reintegration is exactly as cheap
	// as PCF's failure handling. Calling it for a live (or unknown)
	// neighbor is a no-op.
	OnLinkRecover(neighbor int)

	// LiveNeighbors returns the neighbors not excluded by OnLinkFailure,
	// in stable order. The engine draws push targets from this set.
	LiveNeighbors() []int32

	// OnNeighborJoin admits a brand-new neighbor (one that was NOT in
	// the Reset neighbor list), for open-world churn: the protocol grows
	// its per-edge state by one zero-flow edge and appends the neighbor
	// to its live list. A zero flow carries no mass, so admitting an
	// edge is mass-neutral by construction. Engines call it on both
	// endpoints of every edge created by a join or a rewire.
	OnNeighborJoin(neighbor int)

	// AbsorbMass folds v into the node's own initial contribution,
	// raising its local mass (and nothing else — flows, ϕ and live
	// lists are untouched). Engines use it to hand a gracefully
	// departing neighbor's surplus to a survivor, keeping the global
	// mass over the live roster exact across the departure. It differs
	// from SetInput, which replaces the input; AbsorbMass adds to it,
	// and the engine's oracle keeps attributing the mass to the node
	// that first contributed it.
	AbsorbMass(v Value)

	// SetInput replaces the node's current input value while the
	// reduction runs — live monitoring (the paper's reference [8],
	// LiMoSense): the network's estimates re-converge to the new
	// aggregate without a restart. The weight component must equal the
	// original weight (the aggregate's weighting scheme is fixed at
	// Reset). Flow-based algorithms shift only the local mass; push-sum
	// adds the input delta to its current mass, so under message loss
	// the adjustment is as fragile as the rest of its mass.
	SetInput(v Value)

	// SaveState appends every piece of mutable protocol state to the
	// writer in a fixed order, for checkpointing.
	SaveState(w *StateWriter)

	// LoadState reads SaveState's streams back in the same order into a
	// node that has been Reset with the identical (id, neighbors, init
	// width) — fully overwriting the post-Reset state, so
	// Reset-then-LoadState reproduces the saved node bit for bit
	// (including the verbatim live-neighbor order, which protocols whose
	// floating-point results depend on iteration order must preserve).
	// Failures are reported through the reader's sticky error.
	LoadState(r *StateReader)
}

// Flows is an optional interface exposing a protocol's per-neighbor flow
// state, used by tests and by the bus-network worked example (paper
// Fig. 2) to assert equilibrium flow values.
type Flows interface {
	// Flow returns the protocol's current net flow from this node to the
	// given neighbor (for PCF: the sum of both slots plus cancelled mass
	// attributed to that edge is not meaningful, so PCF returns the sum
	// of the two live slots).
	Flow(neighbor int) Value
}

// FlowViewer is an optional Flows refinement for allocation-free
// probes: FlowView returns a read-only view of the node's current flow
// toward the neighbor — the returned Value aliases internal state and
// is valid only until the protocol's next state change — and reports
// whether the neighbor is tracked at all. Single-flow protocols (PF,
// FU) implement it; PCF exposes SlotsViewer instead because its
// per-edge state is a slot pair.
type FlowViewer interface {
	FlowView(neighbor int) (Value, bool)
}

// SlotsViewer is the PCF counterpart of FlowViewer: a read-only,
// non-cloning view of the two cancellation slots for the given
// neighbor. The anti-symmetry invariant holds per slot, with a
// cancelled (zero) side exempt — see the property tests.
type SlotsViewer interface {
	SlotViews(neighbor int) (f [2]Value, ok bool)
}
