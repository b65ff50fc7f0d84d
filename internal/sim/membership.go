package sim

// Open-world membership: the engine-side implementation of the
// fault.Plan membership operations (NodeJoin / NodeLeave / EdgeRewire /
// SetLinkLoss). The immutable CSR graph stays the construction-time
// base; the first membership operation lazily wraps it in a
// topology.Overlay and from then on every topology read in the engine
// (neighbor rows, edge checks, anti-symmetry probe, snapshots) goes
// through the overlay accessors below.
//
// Determinism: membership operations fire between rounds (fault.Plan
// applies them in the serial OnRound phase), joined nodes are appended
// to the LAST shard so the shards stay contiguous ascending id ranges (a
// join's id is always the current maximum), the
// joined node's RNG stream is derived from (seed, id) exactly like
// every construction-time stream, and per-link loss draws come from
// per-DIRECTED-link splitmix64 streams seeded from (seed, from, to)
// alone — each link's drop sequence depends only on its own traffic, so
// the parallel delivery phase can draw from P concurrent destination
// tasks — and a churned run remains byte-identical across shard counts
// and delivery paths, while a loss-free run consumes no stream
// at all (byte-identical to an engine built before this layer existed).
//
// Mass accounting: a joining node enters with its own initial value and
// peers admit it with zero-flow edges (Protocol.OnNeighborJoin), so the
// join is exact. A leaving node first has its in-flight messages
// flushed, then its links torn down on both sides (the PR 1
// edge-failure machinery redistributes per-edge flow state), and
// finally hands its surplus — its local mass minus its own engine-recorded
// input, i.e. whatever mass the protocol had absorbed beyond its own
// contribution (exactly zero for PF/FU, the accumulated ϕ for PCF) —
// to its lowest-id live neighbor via AbsorbMass. The oracle input of
// the heir absorbs the same surplus, so Σ live init tracks the
// protocol-state global mass exactly and convergence targets stay
// well-defined under churn.

import (
	"fmt"
	"math"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// WithJoinFactory supplies the protocol constructor used for nodes that
// join mid-run (and for restoring snapshots of churned engines). Each
// call must return a fresh, un-Reset protocol instance of the same kind
// as the construction-time ones. JoinNode panics without it.
func WithJoinFactory(f func() gossip.Protocol) EngineOption {
	return func(e *Engine) { e.joinFactory = f }
}

// Overlay returns the engine's mutable topology overlay, or nil while
// no membership operation has fired (the engine then still reads the
// immutable base graph directly).
func (e *Engine) Overlay() *topology.Overlay { return e.overlay }

// ensureOverlay wraps the base graph on first use.
func (e *Engine) ensureOverlay() *topology.Overlay {
	if e.overlay == nil {
		e.overlay = topology.NewOverlay(e.graph)
	}
	return e.overlay
}

// neighbors is the overlay-aware neighbor row accessor used by every
// topology read after construction.
func (e *Engine) neighbors(i int) []int32 {
	if e.overlay != nil {
		return e.overlay.Neighbors(i)
	}
	return e.graph.Neighbors(i)
}

// hasEdge is the overlay-aware edge test.
func (e *Engine) hasEdge(i, j int) bool {
	if e.overlay != nil {
		return e.overlay.HasEdge(i, j)
	}
	return e.graph.HasEdge(i, j)
}

// JoinNode admits a brand-new node: id must equal the current node
// count (ids stay dense and are never reused), value is its scalar
// input (weight 1 — the average-aggregate convention), and peers are
// the existing live nodes it wires to. The new node starts with zero
// flows toward every peer and each peer admits it the same way, so the
// join changes global mass by exactly the joining value. Requires
// WithJoinFactory and a width-1 engine.
func (e *Engine) JoinNode(id int, value float64, peers []int) {
	if e.joinFactory == nil {
		panic("sim: JoinNode requires WithJoinFactory")
	}
	if e.width != 1 {
		panic("sim: JoinNode supports scalar (width-1) reductions only")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic("sim: JoinNode value must be finite")
	}
	if len(peers) == 0 {
		panic("sim: JoinNode requires at least one peer")
	}
	o := e.ensureOverlay()
	if id != o.N() {
		panic(fmt.Sprintf("sim: JoinNode id %d, want the next dense id %d", id, o.N()))
	}
	for _, p := range peers {
		if p < 0 || p >= len(e.alive) || !e.alive[p] {
			panic(fmt.Sprintf("sim: JoinNode peer %d is not a live node", p))
		}
	}
	o.AddNode(peers...) // validates range/distinctness, builds the sorted row
	v := gossip.Scalar(value, 1)
	e.init = append(e.init, v.Clone())
	p := e.joinFactory()
	p.Reset(id, o.Neighbors(id), v.Clone())
	e.protos = append(e.protos, p)
	e.alive = append(e.alive, true)
	e.hung = append(e.hung, false)
	want := 8
	if e.det != nil {
		want += len(peers)
	}
	e.inbox = append(e.inbox, make([]*gossip.Message, 0, want))
	e.perm = append(e.perm, id)
	if e.nodeCkpt != nil {
		e.nodeCkpt = append(e.nodeCkpt, nil)
	}
	if e.det != nil {
		e.det = append(e.det, detect.New(e.detCfg.Detect, o.Neighbors(id), float64(e.round)))
		for i := range e.lastSent {
			e.lastSent[i] = append(e.lastSent[i], 0)
		}
		e.lastSent = append(e.lastSent, make([]int, id+1))
	}
	// The node joins the last shard, whose range runs to the node count (a
	// join's id is always the current maximum), and the id-derived stream
	// makes the node's schedule P-independent.
	e.shard.nodeRNG = append(e.shard.nodeRNG, mix64(uint64(e.seed)^(uint64(id)+1)*0x632BE59BD9B4E019))
	e.shard.shardOf = append(e.shard.shardOf, int32(e.shards-1))
	for _, j := range peers {
		e.protos[j].OnNeighborJoin(id)
		e.layoutAppend(j, id)
		if e.det != nil {
			e.det[j].AddNeighbor(id, float64(e.round))
		}
	}
	e.recomputeTargets()
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeJoin, Round: e.round, A: id, B: -1, Value: value})
}

// LeaveNode removes node i gracefully: its in-flight messages are
// flushed (both directions, so pending flow exchanges complete), every
// incident overlay link is torn down on both sides, and the node's
// surplus mass — LocalValue minus its own input — is handed to its
// lowest-id live neighbor. The departing node's own input leaves the
// system with it; the oracle target becomes the live-roster aggregate.
//
// The surplus handoff is a pure redistribution, so the heir's oracle
// input is deliberately NOT credited: with conservation holding before
// the leave (Σ local = Σ init over the full roster, guaranteed by the
// flush) and a loss-free teardown, the survivors collectively hold
// Σ init − LocalValue(i), and adding the surplus lands them on exactly
// Σ init over the survivor roster. This is protocol-independent — it
// holds both for reclaim-style teardowns (push-flow, flow-updating,
// where the surplus unwinds to ≈0) and absorb-style ones (PCF, where
// the survivors' ϕ keeps counting mass already exchanged with the
// leaver and the surplus is exactly the offsetting imbalance).
//
// When no live neighbor remains the surplus is lost, exactly as under
// a crash (the recorded EvNodeLeave then carries B = -1). No-op on a
// dead node.
func (e *Engine) LeaveNode(i int) {
	if i < 0 || i >= len(e.alive) || !e.alive[i] {
		return
	}
	o := e.ensureOverlay()
	row := append([]int32(nil), o.Neighbors(i)...)
	e.ensureLayout(i)
	for _, j32 := range row {
		e.ensureLayout(int(j32))
	}
	for _, j32 := range row {
		j := int(j32)
		if !e.dead[linkKey(i, j)] {
			e.flushLink(i, j)
		}
	}
	for _, j32 := range row {
		j := int(j32)
		key := linkKey(i, j)
		if !e.dead[key] {
			e.teardownPair(i, j)
		}
		delete(e.dead, key)
		delete(e.silenced, key)
		e.dropLossLink(i, j)
		o.RemoveEdge(i, j)
	}
	var surplus gossip.Value
	e.protos[i].LocalValueInto(&surplus)
	surplus.SubInPlace(e.init[i])
	heir := -1
	for _, j32 := range row { // sorted ascending: first live = lowest id
		if e.alive[j32] {
			heir = int(j32)
			break
		}
	}
	if heir >= 0 {
		e.protos[heir].AbsorbMass(surplus)
	}
	e.alive[i] = false
	e.hung[i] = false
	e.clearInbox(i)
	e.recomputeTargets()
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeLeave, Round: e.round, A: i, B: heir})
}

// RewireEdge performs one Watts–Strogatz rewire step: overlay edge
// (a, b) is replaced by (a, c). The old edge is flushed and torn down
// on both sides exactly like a quiescent link failure (a pure mass
// redistribution), and the new edge starts clean on both endpoints via
// OnNeighborJoin — zero flows, no remembered handshake state — which is
// mass-neutral by construction. The recorded EvEdgeRewire carries the
// old edge in (A, B) and the new endpoint c in Value.
func (e *Engine) RewireEdge(a, b, c int) {
	o := e.ensureOverlay()
	if !o.HasEdge(a, b) {
		panic(fmt.Sprintf("sim: no link (%d,%d) to rewire", a, b))
	}
	if c == a || o.HasEdge(a, c) {
		panic(fmt.Sprintf("sim: rewire target edge (%d,%d) invalid or already present", a, c))
	}
	e.ensureLayout(a)
	e.ensureLayout(b)
	e.ensureLayout(c)
	key := linkKey(a, b)
	if !e.dead[key] {
		e.flushLink(a, b)
		e.teardownPair(a, b)
	}
	delete(e.dead, key)
	delete(e.silenced, key)
	e.dropLossLink(a, b)
	o.RemoveEdge(a, b)
	o.AddEdge(a, c)
	if e.alive[a] {
		e.protos[a].OnNeighborJoin(c)
	}
	if e.alive[c] {
		e.protos[c].OnNeighborJoin(a)
	}
	e.layoutAppend(a, c)
	e.layoutAppend(c, a)
	if e.det != nil {
		e.det[a].AddNeighbor(c, float64(e.round))
		e.det[c].AddNeighbor(a, float64(e.round))
	}
	e.noteEvent(metrics.Event{Kind: metrics.EvEdgeRewire, Round: e.round, A: a, B: b, Value: float64(c)})
}

// SetLinkLoss sets the heterogeneous loss rate of the undirected link
// (a, b): every message on the link, in either direction, is henceforth
// dropped independently with probability p. Each DIRECTION of the link
// draws from its own dedicated splitmix64 stream, seeded from
// (engine seed, from, to) alone — so a link's drop sequence is a pure
// function of how many messages have crossed it, independent of when
// any other link's messages are routed. That order-independence across
// links is what lets the parallel delivery phase draw loss from P
// concurrent destination tasks and still produce byte-identical runs
// for every shard count. p = 0 removes the rate (the
// streams keep their position, so re-enabling loss later continues the
// same sequence deterministically). This is the per-link replacement
// for the single global fault.Loss interceptor.
func (e *Engine) SetLinkLoss(a, b int, p float64) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic("sim: link loss probability out of [0,1]")
	}
	if !e.hasEdge(a, b) {
		panic(fmt.Sprintf("sim: no link (%d,%d) to set a loss rate on", a, b))
	}
	key := linkKey(a, b)
	if p == 0 {
		delete(e.lossRates, key)
	} else {
		if e.lossRates == nil {
			e.lossRates = make(map[[2]int]float64)
		}
		e.lossRates[key] = p
		// Both directed streams are created HERE, serially, between
		// rounds: delivery tasks only read the map and advance the
		// pointed-to state, so parallel delivery never writes the map.
		e.ensureLossStream(a, b)
		e.ensureLossStream(b, a)
	}
	e.noteEvent(metrics.Event{Kind: metrics.EvSetLinkLoss, Round: e.round, A: a, B: b, Value: p})
}

// LinkLossRate returns the current loss rate of link (i, j) (0 when
// none is set).
func (e *Engine) LinkLossRate(i, j int) float64 { return e.lossRates[linkKey(i, j)] }

// lossDrop reports whether the per-link loss table claims the message
// crossing the directed link from → to. Streams exist only for links
// that have carried a rate, so loss-free runs consume nothing and stay
// byte-identical to runs on engines that predate the table. A directed
// link's stream is advanced only by the destination shard's delivery
// task (or the serial merge, or the sequential schedule), never
// concurrently.
func (e *Engine) lossDrop(from, to int) bool {
	p, ok := e.lossRates[linkKey(from, to)]
	if !ok {
		return false
	}
	st := e.lossStreams[[2]int{from, to}]
	*st += smixGamma
	u := float64(mix64(*st)>>11) * 0x1p-53
	return u < p
}

// ensureLossStream creates the directed stream from → to if absent,
// seeded from (lossBase, from, to) alone — never from the shard count or
// call order, so the stream contents are P-independent.
func (e *Engine) ensureLossStream(from, to int) {
	k := [2]int{from, to}
	if _, ok := e.lossStreams[k]; ok {
		return
	}
	if e.lossStreams == nil {
		e.lossStreams = make(map[[2]int]*uint64)
	}
	st := mix64(mix64(e.lossBase^(uint64(from)+1)*0x632BE59BD9B4E019) ^ (uint64(to)+1)*smixGamma)
	e.lossStreams[k] = &st
}

// dropLossLink removes the loss rate and both directed streams of a
// link that is going away (leave, rewire) — unlike SetLinkLoss(·,·,0),
// which keeps the streams because the link itself survives.
func (e *Engine) dropLossLink(a, b int) {
	delete(e.lossRates, linkKey(a, b))
	delete(e.lossStreams, [2]int{a, b})
	delete(e.lossStreams, [2]int{b, a})
}

// lossBaseOf derives the per-link loss-stream seed material from an
// engine seed (shared with the snapshot loader, which must adopt the
// capture seed's base).
func lossBaseOf(seed int64) uint64 { return mix64(uint64(seed) ^ 0xA24BAED4963EE407) }

// seedLossRNG (re)initializes the loss-stream seed material from the
// engine seed and discards any existing per-link streams.
func (e *Engine) seedLossRNG(seed int64) {
	e.lossBase = lossBaseOf(seed)
	e.lossStreams = nil
}

// Phase-split teardown conservation. Under the sequential schedule,
// messages on an edge are totally ordered (a node drains its inbox
// before sending, and delivery is immediate), so after flushLink the two
// sides of an edge are in a handshake-consistent state and tearing the
// edge down is a pure mass redistribution for every protocol (PF/FU
// reclaim synchronized mirrors; PCF absorbs pairwise-consistent slots).
// The phase-split schedule has no such order: both endpoints can send in
// the same round, the crossing messages overwrite each other's mirrors,
// and after the flush the pair state is one no sequential execution can
// produce. That inconsistency is transient on a live edge (the next
// completed exchange overwrites it) but a teardown freezes it — for PF
// and FU the reclaim happens to release the imbalance and self-heal,
// while PCF's absorb semantics folds each side's own inconsistent view
// into ϕ, turning the transient into a permanent estimate bias.
//
// teardownPair therefore re-synchronizes the edge before the teardown:
// one *ordered* exchange — i sends and j receives, then j sends on its
// updated state and i receives — run through the protocols' own
// send/receive path, which is exactly the sequence a sequential
// execution would have produced and restores pairwise consistency for
// any protocol (each message is an ordinary protocol step, so the
// exchange is conservation-neutral by construction). The sync is gated
// on the phase-split schedule: sequential edges are already consistent
// after the flush, and skipping the extra exchange keeps sequential runs
// bit-identical to golden recordings.

// teardownPair notifies both endpoints of the flushed link (i, j) going
// down — protocol OnLinkFailure plus detector eviction — after
// re-synchronizing the pair state under the phase-split schedule so the
// teardown is a pure mass redistribution (see above).
func (e *Engine) teardownPair(i, j int) {
	if !e.seq && e.alive[i] && e.alive[j] && !e.hung[i] && !e.hung[j] &&
		containsID(e.protos[i].LiveNeighbors(), j) && containsID(e.protos[j].LiveNeighbors(), i) {
		e.syncExchange(i, j)
		e.syncExchange(j, i)
	}
	if e.alive[i] {
		e.protos[i].OnLinkFailure(j)
		if e.det != nil {
			e.det[i].Remove(j)
		}
	}
	if e.alive[j] {
		e.protos[j].OnLinkFailure(i)
		if e.det != nil {
			e.det[j].Remove(i)
		}
	}
}

// syncExchange performs one immediate protocol send from i to j — the
// sequential schedule's delivery discipline — as part of an edge resync,
// on a message from j's shard free list.
func (e *Engine) syncExchange(i, j int) {
	s := int(e.shard.shardOf[j])
	m := e.getMsgShard(s)
	e.protos[i].FillMessage(j, m)
	e.dispatch(j, m)
	e.putMsgShard(s, m)
}

func containsID(list []int32, id int) bool {
	for _, x := range list {
		if int(x) == id {
			return true
		}
	}
	return false
}

// Protocol storage rows. A protocol's positional state layout is fixed
// by the neighbor row it was Reset with plus every OnNeighborJoin
// append — link failures and removals shrink its live set but never its
// storage. Joins alone keep that layout equal to the overlay row (a
// joiner's id exceeds every existing id, so the sorted overlay insert
// is also an append), but a leave or rewire removes overlay entries the
// storage still holds. Snapshot restore must Reset each protocol with
// its storage row, not the overlay row, or the positional state streams
// will not line up — so the first divergence pins the row and every
// later append is mirrored onto it.

// ensureLayout pins node i's storage row before a mutation that would
// desynchronize it from the overlay row. Must run before the overlay
// mutation: until the first divergence the storage row IS the overlay
// row.
func (e *Engine) ensureLayout(i int) {
	if _, ok := e.layout[i]; ok {
		return
	}
	if e.layout == nil {
		e.layout = make(map[int][]int32)
	}
	e.layout[i] = append([]int32(nil), e.neighbors(i)...)
}

// layoutAppend mirrors an OnNeighborJoin storage append onto node i's
// pinned row. Unpinned rows need nothing: they still track the overlay.
func (e *Engine) layoutAppend(i, j int) {
	row, ok := e.layout[i]
	if !ok {
		return
	}
	for _, x := range row {
		if int(x) == j {
			return
		}
	}
	e.layout[i] = append(row, int32(j))
}

// layoutRow is the neighbor row protocols (and detectors) must be Reset
// with when restoring node i's positional state.
func (e *Engine) layoutRow(i int) []int32 {
	if row, ok := e.layout[i]; ok {
		return row
	}
	return e.neighbors(i)
}

// dropMembership rewinds the open-world state to the construction-time
// base: joined nodes are truncated away (ids beyond the base graph),
// the overlay and the per-link loss table are discarded. Called by
// Reset — membership, like fault injection, is per-trial state.
func (e *Engine) dropMembership() {
	if e.overlay == nil && e.lossRates == nil && e.lossStreams == nil {
		return
	}
	n := e.graph.N()
	if len(e.protos) > n {
		for i := n; i < len(e.protos); i++ {
			e.clearInbox(i)
		}
		e.protos = e.protos[:n]
		e.init = e.init[:n]
		e.inbox = e.inbox[:n]
		e.alive = e.alive[:n]
		e.hung = e.hung[:n]
		e.perm = e.perm[:n]
		if e.det != nil {
			e.det = e.det[:n]
			e.lastSent = e.lastSent[:n]
			for i := range e.lastSent {
				e.lastSent[i] = e.lastSent[i][:n]
			}
		}
		if e.nodeCkpt != nil {
			e.nodeCkpt = e.nodeCkpt[:n]
		}
		e.shard.nodeRNG = e.shard.nodeRNG[:n]
		e.shard.shardOf = e.shard.shardOf[:n]
	}
	e.overlay = nil
	e.lossRates = nil
	e.lossStreams = nil
	e.layout = nil
}
