package sim

// Checkpointing: the full deterministic state of a sharded engine
// frozen at a round boundary and restored bit-for-bit. A Snapshot is
// nothing but flat-slice copies — the struct-of-arrays protocol state,
// the per-node splitmix64 streams, the in-flight inboxes, the detector
// suspicion state and the round counter serialize into the four typed
// streams of gossip.State — so internal/checkpoint can wrap it in a
// versioned, checksummed binary codec without knowing anything about
// protocols or engines. The fault-plan cursor needs no storage of its
// own: fault.Plan keys events by absolute round and the round counter
// is part of the snapshot.
//
// The determinism contract: Restore(Snapshot()) taken at round R on a
// sharded engine, followed by stepping to round T, is byte-identical to
// the uninterrupted run at every shard count — snapshots record no
// shard count (node streams are derived from ids, the merge order from
// ascending node ids), so a snapshot taken at shards=2 restores into a
// shards=8 engine and continues the same schedule. Only the phase-split
// schedule supports this: the sequential schedule draws from one
// *math/rand.Rand whose internal state cannot be serialized.
//
// This file also hosts the per-node recovery mode: CheckpointNode
// freezes a single node's protocol state, and RestartNode revives a
// crashed node from that frozen state (the crash-restart strategy
// benchmarked against detector-driven reintegration in
// internal/experiments).

import (
	"errors"
	"fmt"
	"sort"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// Snapshot is the complete deterministic state of a sharded engine at a
// round boundary. It is a pure data capture: taking one does not
// disturb the engine, and restoring one overwrites every piece of
// evolving state while reusing the engine's allocations.
type Snapshot struct {
	// N and Width identify the configuration the snapshot was taken
	// under; Restore refuses a mismatch. N counts every node, including
	// ones that joined the open-world overlay mid-run.
	N     int
	Width int
	// Round is the round counter at capture time.
	Round int
	// State holds the flat serialized streams.
	State gossip.State
	// Overlay is the open-world membership section: the topology
	// overlay delta (appended nodes, dirty rows), the per-link loss
	// table and the loss-draw stream state. It is decoded BEFORE State,
	// because restoring the overlay is what tells the engine how many
	// nodes the main stream describes. Empty on engines that never
	// churned — such snapshots are byte-identical to pre-overlay ones,
	// and old serialized snapshots (no section) still restore.
	Overlay gossip.State
}

// ErrNotSharded is returned by Snapshot/Restore on an engine running
// the sequential schedule, whose *math/rand.Rand schedule state
// cannot be serialized. Construct the engine with WithShards (1 is
// enough) to checkpoint it.
var ErrNotSharded = errors.New("sim: snapshot requires the phase-split schedule (construct the engine with WithShards)")

// Snapshot captures the engine's full deterministic state. The engine
// must be at a round boundary, which it always is between Step calls.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.seq {
		return nil, ErrNotSharded
	}
	n := len(e.protos)
	w := &gossip.StateWriter{}
	w.PutU64(uint64(e.round))
	w.PutU64(uint64(e.keepalives))
	for _, s := range e.shard.nodeRNG {
		w.PutU64(s)
	}
	for i := 0; i < n; i++ {
		w.PutBool(e.alive[i])
		w.PutBool(e.hung[i])
	}
	putLinkSet(w, e.dead)
	putLinkSet(w, e.silenced)
	w.PutBool(e.det != nil)
	for i := 0; i < n; i++ {
		w.PutValue(e.init[i])
	}
	for _, p := range e.protos {
		p.SaveState(w)
	}
	if e.det != nil {
		for i := 0; i < n; i++ {
			e.det[i].SaveState(w)
			for _, j := range e.neighbors(i) {
				w.PutU64(uint64(e.lastSent[i][j]))
			}
		}
	}
	for i := 0; i < n; i++ {
		w.PutU64(uint64(len(e.inbox[i])))
		for _, m := range e.inbox[i] {
			putMessage(w, m)
		}
	}
	snap := &Snapshot{N: n, Width: e.width, Round: e.round, State: w.State}
	if e.overlay != nil || e.lossRates != nil || e.lossStreams != nil {
		ow := &gossip.StateWriter{}
		e.saveMembership(ow)
		snap.Overlay = ow.State
	}
	e.noteEvent(metrics.Event{Kind: metrics.EvSnapshot, Round: e.round, A: -1, B: -1})
	return snap, nil
}

// saveMembership serializes the overlay section: base/total node
// counts, the overlay's dirty rows (sorted by id — deterministic), the
// loss table (sorted by link), the per-directed-link loss stream states
// (sorted by directed link) and the pinned protocol storage rows
// (sorted by id).
func (e *Engine) saveMembership(w *gossip.StateWriter) {
	w.PutU64(uint64(e.graph.N()))
	if e.overlay != nil {
		w.PutU64(uint64(e.overlay.N()))
		ids := e.overlay.DirtyIDs()
		w.PutU64(uint64(len(ids)))
		for _, id := range ids {
			w.PutI32(id)
			w.PutI32s(e.overlay.Neighbors(int(id)))
		}
	} else {
		w.PutU64(uint64(e.graph.N()))
		w.PutU64(0)
	}
	keys := make([][2]int, 0, len(e.lossRates))
	for k := range e.lossRates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	w.PutU64(uint64(len(keys)))
	for _, k := range keys {
		w.PutI32(int32(k[0]))
		w.PutI32(int32(k[1]))
		w.PutF64(e.lossRates[k])
	}
	// Per-directed-link loss stream states, sorted by (from, to) so the
	// section never depends on map iteration order. Streams for links
	// whose rate was later cleared are kept: SetLinkLoss promises the
	// sequence continues where it left off.
	skeys := make([][2]int, 0, len(e.lossStreams))
	for k := range e.lossStreams {
		skeys = append(skeys, k)
	}
	sort.Slice(skeys, func(a, b int) bool {
		if skeys[a][0] != skeys[b][0] {
			return skeys[a][0] < skeys[b][0]
		}
		return skeys[a][1] < skeys[b][1]
	})
	w.PutU64(uint64(len(skeys)))
	for _, k := range skeys {
		w.PutI32(int32(k[0]))
		w.PutI32(int32(k[1]))
		w.PutU64(*e.lossStreams[k])
	}
	// The trial seed: node-join RNG streams derive from it, so a restored
	// engine must adopt the capture seed for post-restore joins to replay
	// identically.
	w.PutU64(uint64(e.seed))
	ids := make([]int, 0, len(e.layout))
	for id := range e.layout {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.PutU64(uint64(len(ids)))
	for _, id := range ids {
		w.PutI32(int32(id))
		w.PutI32s(e.layout[id])
	}
}

// loadMembership rebuilds the overlay, the per-node scaffolding of any
// appended nodes, the loss table, the trial seed and the pinned storage
// rows from a snapshot's overlay section.
// Called before the main stream is decoded (the section determines the
// node count the stream describes). Restoring appended nodes requires
// WithJoinFactory.
func (e *Engine) loadMembership(r *gossip.StateReader) error {
	baseN := int(r.U64())
	if r.Err() == nil && baseN != e.graph.N() {
		return fmt.Errorf("sim: snapshot overlay base %d nodes, engine graph has %d", baseN, e.graph.N())
	}
	totalN := int(r.U64())
	dirty := int(r.U64())
	if r.Err() != nil {
		return fmt.Errorf("sim: corrupt snapshot overlay section: %w", r.Err())
	}
	if totalN != e.graph.N() || dirty > 0 {
		o := topology.NewOverlay(e.graph)
		o.Grow(totalN)
		for c := 0; c < dirty; c++ {
			id := int(r.I32())
			row := r.I32s()
			if r.Err() != nil {
				return fmt.Errorf("sim: corrupt snapshot overlay section: %w", r.Err())
			}
			if id < 0 || id >= totalN {
				return fmt.Errorf("sim: snapshot overlay row id %d out of range [0,%d)", id, totalN)
			}
			o.SetRow(int(id), row)
		}
		if err := o.Validate(); err != nil {
			return fmt.Errorf("sim: snapshot overlay invalid: %w", err)
		}
		e.overlay = o
		for id := e.graph.N(); id < totalN; id++ {
			if e.joinFactory == nil {
				return errors.New("sim: restoring a snapshot with joined nodes requires WithJoinFactory")
			}
			e.appendNodeScaffold(id)
		}
	}
	lossCount := int(r.U64())
	for c := 0; c < lossCount; c++ {
		a := int(r.I32())
		b := int(r.I32())
		p := r.F64()
		if r.Err() != nil {
			break
		}
		if e.lossRates == nil {
			e.lossRates = make(map[[2]int]float64, lossCount)
		}
		e.lossRates[[2]int{a, b}] = p
	}
	streamCount := int(r.U64())
	for c := 0; c < streamCount; c++ {
		a := int(r.I32())
		b := int(r.I32())
		st := r.U64()
		if r.Err() != nil {
			break
		}
		if e.lossStreams == nil {
			e.lossStreams = make(map[[2]int]*uint64, streamCount)
		}
		stc := st
		e.lossStreams[[2]int{a, b}] = &stc
	}
	e.seed = int64(r.U64())
	// Post-restore SetLinkLoss calls must derive fresh streams from the
	// capture seed, not the construction seed, to replay identically.
	e.lossBase = lossBaseOf(e.seed)
	layoutCount := int(r.U64())
	for c := 0; c < layoutCount; c++ {
		id := int(r.I32())
		row := append([]int32(nil), r.I32s()...)
		if r.Err() != nil {
			break
		}
		if id < 0 || id >= totalN {
			return fmt.Errorf("sim: snapshot layout row id %d out of range [0,%d)", id, totalN)
		}
		if e.layout == nil {
			e.layout = make(map[int][]int32, layoutCount)
		}
		e.layout[id] = row
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: corrupt snapshot overlay section: %w", err)
	}
	if !r.Exhausted() {
		return errors.New("sim: snapshot overlay section has trailing state")
	}
	return nil
}

// appendNodeScaffold grows every per-node engine structure for an
// appended node being restored from a snapshot. Unlike JoinNode it
// performs no protocol handshake — the main snapshot stream overwrites
// the protocol, detector, alive and init state right after.
func (e *Engine) appendNodeScaffold(id int) {
	e.protos = append(e.protos, e.joinFactory())
	e.init = append(e.init, gossip.NewValue(e.width))
	e.alive = append(e.alive, true)
	e.hung = append(e.hung, false)
	e.inbox = append(e.inbox, make([]*gossip.Message, 0, 8))
	e.perm = append(e.perm, id)
	if e.nodeCkpt != nil {
		e.nodeCkpt = append(e.nodeCkpt, nil)
	}
	if e.det != nil {
		e.det = append(e.det, nil) // rebuilt from the main stream
		for i := range e.lastSent {
			e.lastSent[i] = append(e.lastSent[i], 0)
		}
		e.lastSent = append(e.lastSent, make([]int, id+1))
	}
	e.shard.nodeRNG = append(e.shard.nodeRNG, 0) // overwritten by the main stream
	e.shard.shardOf = append(e.shard.shardOf, int32(e.shards-1))
}

// Restore rewinds the engine to the snapshot's state. The engine must
// be sharded (any shard count) and built over the same graph, protocol
// kinds, value width and detector configuration the snapshot was taken
// under — N/width/detector-presence mismatches are detected and
// reported; a wrong graph or protocol kind surfaces as a stream
// mismatch error. Like Reset, Restore clears the interceptor and the
// metrics recorder (per-trial attachments — reattach them afterwards).
//
// On error the engine state is unspecified; Reset it before further
// use.
func (e *Engine) Restore(s *Snapshot) error {
	if e.seq {
		return ErrNotSharded
	}
	// Rewind any membership state of the current trial, then rebuild the
	// snapshot's overlay — the section determines how many nodes the
	// main stream describes, so it decodes first.
	e.dropMembership()
	ov := s.Overlay
	if len(ov.F64) > 0 || len(ov.U64) > 0 || len(ov.I32) > 0 || len(ov.B) > 0 {
		if err := e.loadMembership(gossip.NewStateReader(ov)); err != nil {
			return err
		}
	}
	n := len(e.protos)
	if s.N != n {
		return fmt.Errorf("sim: snapshot holds %d nodes, engine has %d", s.N, n)
	}
	if s.Width != e.width {
		return fmt.Errorf("sim: snapshot value width %d, engine width %d", s.Width, e.width)
	}
	r := gossip.NewStateReader(s.State)
	e.round = int(r.U64())
	e.keepalives = int(r.U64())
	for i := range e.shard.nodeRNG {
		e.shard.nodeRNG[i] = r.U64()
	}
	for i := 0; i < n; i++ {
		e.alive[i] = r.Bool()
		e.hung[i] = r.Bool()
	}
	readLinkSet(r, e.dead)
	readLinkSet(r, e.silenced)
	hasDet := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: corrupt snapshot header: %w", err)
	}
	if hasDet != (e.det != nil) {
		return fmt.Errorf("sim: snapshot detector presence (%v) does not match engine (%v)", hasDet, e.det != nil)
	}
	for i := 0; i < n; i++ {
		r.Value(&e.init[i])
	}
	for i, p := range e.protos {
		// The storage row, not the overlay row: positional protocol
		// state keeps slots for removed neighbors (see layoutRow).
		p.Reset(i, e.layoutRow(i), e.init[i].Clone())
		p.LoadState(r)
	}
	if e.det != nil {
		for i := 0; i < n; i++ {
			e.det[i] = detect.New(e.detCfg.Detect, e.layoutRow(i), 0)
			e.det[i].LoadState(r)
			ls := e.lastSent[i]
			for j := range ls {
				ls[j] = 0
			}
			for _, j := range e.neighbors(i) {
				ls[j] = int(r.U64())
			}
		}
	}
	for i := 0; i < n; i++ {
		e.clearInbox(i)
		count := int(r.U64())
		if r.Err() != nil {
			break
		}
		for c := 0; c < count; c++ {
			m := e.getMsgShard(int(e.shard.shardOf[i]))
			if !readMessage(r, m, e.width) {
				break
			}
			e.inbox[i] = append(e.inbox[i], m)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: snapshot does not match engine configuration (graph, protocols or detector differ): %w", err)
	}
	if !r.Exhausted() {
		return errors.New("sim: snapshot has trailing state (engine configuration differs from capture)")
	}
	// Transient per-trial state: same policy as Reset.
	e.interceptor = nil
	e.rec = nil
	e.inPhase1 = false
	if e.nodeCkpt != nil {
		clear(e.nodeCkpt)
	}
	e.dropShardQueues()
	e.recomputeTargets()
	return nil
}

// putLinkSet serializes an ordered-pair link set in sorted order, so a
// snapshot never depends on map iteration order.
func putLinkSet(w *gossip.StateWriter, set map[[2]int]bool) {
	keys := make([][2]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	w.PutU64(uint64(len(keys)))
	for _, k := range keys {
		w.PutI32(int32(k[0]))
		w.PutI32(int32(k[1]))
	}
}

// readLinkSet restores a link set written by putLinkSet into set
// (cleared first).
func readLinkSet(r *gossip.StateReader, set map[[2]int]bool) {
	clear(set)
	count := r.U64()
	for c := uint64(0); c < count; c++ {
		a := int(r.I32())
		b := int(r.I32())
		if r.Err() != nil {
			return
		}
		set[[2]int{a, b}] = true
	}
}

// putMessage serializes one in-flight message, including the exact
// payload widths (controls carry zero-width flows).
func putMessage(w *gossip.StateWriter, m *gossip.Message) {
	w.PutI32(int32(m.From))
	w.PutI32(int32(m.To))
	w.PutByte(byte(m.Kind))
	w.PutByte(m.C)
	w.PutU64(m.R)
	for _, f := range []gossip.Value{m.Flow1, m.Flow2} {
		w.PutU64(uint64(len(f.X)))
		w.PutF64s(f.X)
		w.PutF64(f.W)
	}
}

// readMessage restores one message into a pooled message whose flow
// capacity is the engine width. Reports false (and latches the reader
// error) on truncation or an impossible payload width.
func readMessage(r *gossip.StateReader, m *gossip.Message, width int) bool {
	m.From = int(r.I32())
	m.To = int(r.I32())
	m.Kind = gossip.Kind(r.Byte())
	m.C = r.Byte()
	m.R = r.U64()
	for _, f := range []*gossip.Value{&m.Flow1, &m.Flow2} {
		fw := int(r.U64())
		if r.Err() != nil {
			return false
		}
		if fw != 0 && fw != width {
			r.Fail()
			return false
		}
		f.X = f.X[:fw]
		xs := r.F64s(fw)
		if r.Err() != nil {
			return false
		}
		copy(f.X, xs)
		f.W = r.F64()
	}
	return r.Err() == nil
}

// CheckpointNode freezes node i's current protocol state as its local
// checkpoint — the save point of the crash-restart recovery mode. A
// later RestartNode revives the node from the most recent checkpoint.
func (e *Engine) CheckpointNode(i int) {
	if e.nodeCkpt == nil {
		e.nodeCkpt = make([]*gossip.State, e.graph.N())
	}
	w := &gossip.StateWriter{}
	e.protos[i].SaveState(w)
	e.nodeCkpt[i] = &w.State
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeCheckpoint, Round: e.round, A: i, B: -1})
}

// RestartNode revives a crashed node from its last CheckpointNode state
// (or from a clean Reset when it never checkpointed) — the
// crash-restart recovery strategy, to be paired with CrashNodeSilent:
// a notified CrashNode permanently tore down the node's links on both
// ends, so a restart after it rejoins nothing.
//
// The restarted node resumes with the checkpointed flows and live list;
// its first sends double as the snapshot-restore handshake — neighbors
// whose detectors evicted it during the outage observe the resumed
// traffic and reintegrate it via OnLinkRecover, after which the flow
// exchange reconciles both edge ends (PCF's hard-resync path handles a
// peer whose handshake state moved on). State mutated after the
// checkpoint is lost; the resulting residual mass and re-convergence
// cost versus detector-driven reintegration is exactly what
// experiments.RecoveryComparison measures. No-op on a live node.
func (e *Engine) RestartNode(i int) {
	if e.alive[i] {
		return
	}
	e.alive[i] = true
	e.hung[i] = false
	e.clearInbox(i)
	p := e.protos[i]
	p.Reset(i, e.layoutRow(i), e.init[i].Clone())
	if e.nodeCkpt != nil && e.nodeCkpt[i] != nil {
		p.LoadState(gossip.NewStateReader(*e.nodeCkpt[i]))
	}
	if e.det != nil {
		// The revived node starts a fresh detector era: everyone was
		// "heard" at the restart round, and the zeroed last-sent row
		// triggers an immediate keepalive burst announcing the rebirth
		// to every live neighbor.
		e.det[i] = detect.New(e.detCfg.Detect, e.neighbors(i), float64(e.round))
		ls := e.lastSent[i]
		for j := range ls {
			ls[j] = 0
		}
	}
	e.recomputeTargets()
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeRestart, Round: e.round, A: i, B: -1})
}
