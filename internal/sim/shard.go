package sim

// The round executor: one executor, two schedules.
//
// Every engine runs on the same machinery: per-shard free lists, one
// node activation (activate: drain the inbox, run the failure detector,
// push one message, queue keepalives), one routing function (route) and
// the per-shard oracle error scan (errorsRange). Two schedules drive it,
// and they differ in exactly three places — activation order, the
// push-target draw and delivery:
//
//   - The sequential schedule (the default) runs on one internal shard.
//     Each round activates the live nodes in a permutation shuffled from
//     the engine's global math/rand stream, draws push targets from the
//     same stream, and enqueue routes every message the moment it is
//     sent, so a node activated later in the round already processes it.
//     Every pairwise exchange is therefore atomic, which is what makes
//     Σ local mass exact (DESIGN.md) and what golden_sweep.json records.
//     Shards() reports 0 for it, and it cannot be snapshotted: the
//     math/rand state is not serializable.
//
//   - The phase-split schedule (WithShards(P), WithPartition) runs P
//     node shards in parallel and produces byte-identical results for
//     every shard count (including P=1) and every shard layout.
//
// The phase-split round has two phases:
//
//	Phase 1 (parallel, one worker per shard): every live node, in
//	ascending id order within its shard, is activated on the inbox it
//	was left with at the end of the previous round; its push target
//	comes from the node's own splitmix64 stream. Outgoing messages are
//	appended to the shard's outbox buckets; nothing is delivered yet.
//	Inside Run, each worker also computes every alive node's oracle
//	error right after the node's activation (stepErrors), so Run needs
//	no separate errors fan-out: the node's state is final for the round
//	by then.
//
//	Phase 2 (parallel): delivery. During phase 1 every send was routed
//	into the per-(source shard → destination shard) outbox bucket
//	bucket[s][d]; phase 2 dispatches one delivery task per DESTINATION
//	shard onto the same worker pool (a second WaitGroup barrier per
//	round). Task d walks its P source buckets in ascending global
//	source id order — trivially on contiguous layouts, via a k-way
//	head merge on arbitrary partitions — and routes each message into
//	its destination inbox, to be processed next round.
//
// Why this is invariant under both P and the shard layout: during phase
// 1 a node reads and writes only its own state (protocol, detector, RNG
// stream, frozen inbox), so the activation interleaving across shards is
// unobservable; and during phase 2 a delivery task touches only state
// owned by its destination shard — the inboxes of its own nodes, its own
// free list and counter bank, and the loss streams of directed links
// INTO its shard — so tasks are pairwise disjoint and running them in
// any order (or inline, in sequence: WithSerialDelivery) produces the
// same bytes. The only cross-task question is per-inbox message order,
// and that is fixed by construction: a node sends at most one message
// per neighbor per round (the data send marks the link via noteSent, so
// the keepalive interval check skips it, and probes target suspects,
// which are disjoint from live neighbors), hence every inbox receives
// messages from DISTINCT sources, delivered in ascending global source
// id order — the only order any consumer can observe. Per-link loss
// draws come from per-directed-link splitmix64 streams (membership.go),
// so reordering draws across links cannot change any link's own
// sequence. The per-node RNG streams are derived from (seed, node id)
// alone, so the communication schedule itself is layout-independent.
//
// Stateful interceptors (fault.Loss, fault.BitFlip advance private RNGs
// per Intercept call) require one global total order, so phase-split
// rounds with an interceptor installed route phase 1 into the flat
// per-source-shard outbox and run the serial cursor merge (mergeOutboxes)
// instead of parallel delivery. The sequential schedule needs no merge:
// its sends are totally ordered already.
//
// Everything a worker writes per node lives in its shard's shardLocal,
// padded so that no two shards' scratch shares a 128-byte block (the
// adjacent-line prefetcher moves lines in pairs): without it, the two
// cores bounce the lines holding neighbouring free-list and bucket
// headers on every message.
//
// Parallelism uses a persistent worker pool: the first parallel round
// starts P−1 worker goroutines that block on a task channel; each round
// the caller dispatches one task per shard (running shard 0 itself) —
// once for phase 1, once for delivery — and the WaitGroup barrier joins
// each phase. Workers live until Engine.Close — or, for abandoned
// engines, until a GC cleanup reclaims them — so steady-state rounds pay
// two channel operations per shard per phase instead of a goroutine
// spawn.
//
// The two schedules are deliberately NOT schedule-compatible: sequential
// activation delivers a message sent earlier in a round to a node
// activated later in the *same* round, a dependency chain through the
// permutation (plus a single global RNG stream) that cannot be
// parallelized bit-exactly. The phase-split schedule trades same-round
// delivery for next-round delivery, which is the standard synchronous
// gossip model and converges at the same asymptotic rate (each exchange
// just spans a round boundary). See DESIGN.md for the full argument.

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// WithShards runs the engine's rounds under the deterministic phase-split
// schedule over p contiguous node shards (p ≥ 1). Results are
// byte-identical for every p — the shard count only selects how much of
// phase 1 runs concurrently — so p is purely a performance knob: p=1 for
// strictly serial execution with the same semantics, p≈GOMAXPROCS for
// large topologies.
func WithShards(p int) EngineOption {
	if p < 1 {
		panic(fmt.Sprintf("sim: WithShards requires p >= 1, got %d", p))
	}
	return func(e *Engine) { e.shards = p; e.partition = nil }
}

// WithPartition runs the phase-split schedule over an explicit shard
// layout, e.g. topology.CacheAware's minimized-cut grouping. The layout
// is a pure performance knob: any valid partition of the engine's graph
// produces byte-identical results to WithShards(len(pt.Shards)) — the
// merge order is ascending global id either way — so goldens, snapshots
// and differential suites carry over unchanged. The partition must be a
// disjoint exact cover of the graph's nodes in ascending order per
// shard (topology.Partition.Validate; New panics otherwise).
func WithPartition(pt *topology.Partition) EngineOption {
	if pt == nil || len(pt.Shards) == 0 {
		panic("sim: WithPartition requires a non-empty partition")
	}
	return func(e *Engine) { e.shards = len(pt.Shards); e.partition = pt }
}

// WithSerialDelivery makes phase 2 run its per-destination delivery
// tasks inline, in ascending shard order, instead of dispatching them to
// the worker pool. The tasks are pairwise disjoint, so this is
// bit-identical to the parallel dispatch by construction — the option
// exists precisely so differential tests and the bench smoke can verify
// that claim, and as a perf baseline for the phase-2 bench rows.
func WithSerialDelivery() EngineOption {
	return func(e *Engine) { e.serialDeliver = true }
}

// WithPhaseLabels wraps every pooled-worker task in runtime/pprof labels
// (phase=activate|deliver|errors, shard=<s>), so a -cpuprofile taken of
// a sharded run attributes samples to phases and shards. Opt-in because
// pprof.Do allocates per task — the default hot path stays
// allocation-free (the bench gate pins allocs/op).
func WithPhaseLabels() EngineOption {
	return func(e *Engine) { e.phaseLabels = true }
}

// Shards returns the configured shard count (0 when the engine runs the
// sequential schedule).
func (e *Engine) Shards() int {
	if e.seq {
		return 0
	}
	return e.shards
}

// shardState holds the executor state of both schedules. Every field
// here is written only between rounds or by the single caller goroutine;
// what a shard's worker writes during a round lives in its own padded
// local[s] (phase 1) or, for a delivery task d, in the destination-owned
// slots named on shardScratch (phase 2).
type shardState struct {
	nodes    [][]int32 // per-shard ascending node-id lists
	shardOf  []int32   // node id → shard index
	nodeRNG  []uint64  // per-node splitmix64 state
	contig   bool      // concatenated shard lists == 0..n−1 (merge fast path)
	baseLast int       // len(nodes[last]) before any joins (dropMembership rewind)

	local []shardLocal // per-shard scratch, one padded block run per shard

	cursor  []int             // serial merge cursors (non-contiguous layouts)
	surplus []*gossip.Message // rebalancePools scratch

	// fuseErrs makes phase 1 compute every alive node's oracle error
	// right after its activation (stepErrors); set and cleared by the
	// caller around the fan-out, read-only to the workers.
	fuseErrs bool

	// phase1Task, deliverTask and errorsTask are the bound method values
	// handed to runShards. Bound once at init: creating a method value or
	// closure at the call site would heap-allocate per call (the func
	// escapes through labeled and the pool's task channel), and the
	// steady-state Step + Errors loop is pinned allocation-free.
	phase1Task  func(int)
	deliverTask func(int)
	errorsTask  func(int)

	workers *workerPool // persistent phase-1 workers; nil until first parallel round
}

// shardBlock is the unit of false sharing: the adjacent-line prefetcher
// pulls 64-byte cache lines in aligned pairs, so two cores writing into
// the same 128-byte block contend even when they never share a line.
const shardBlock = 128

// shardScratch is everything shard s's worker writes per node during a
// round. Phase 1 (shard s's worker) owns all of it except dcur; phase 2
// (delivery task d) writes only dcur of local[d], the pool of local[d],
// and slot d of every source shard's bucket row.
type shardScratch struct {
	pool   []*gossip.Message   // free list
	outbox []*gossip.Message   // flat sends in emission order (interceptor rounds)
	bucket [][]*gossip.Message // bucket[d]: sends to shard d's nodes, emission order
	dcur   []int               // k-way merge cursors of delivery task s (non-contiguous layouts)
	events []metrics.Event     // trace events staged in phase 1, flushed at the barrier
	est    []float64           // estimate scratch of the error kernel
	errs   []float64           // per-node oracle errors, ascending node id
	keep   int                 // keepalives sent this round, folded at the barrier
}

// shardLocal is shardScratch padded so that no two shards' headers ever
// share a 128-byte block: the size is a multiple of shardBlock and the
// padding after the fields is more than one whole block, so the rule
// holds whatever alignment the allocator gives the local slice. Rule for
// new per-shard state: if a worker writes it per node, it goes in
// shardScratch (or in rows carved by paddedRows) — never in a slice
// indexed by shard, whose neighbouring headers share a line.
// TestShardLocalLayout pins both properties.
type shardLocal struct {
	shardScratch
	_ [2*shardBlock - unsafe.Sizeof(shardScratch{})%shardBlock]byte
}

// paddedRows carves p rows of n elements out of one backing array,
// spaced so at least shardBlock bytes separate consecutive rows: rows
// written by different workers then never share a 128-byte block. Each
// row is capped at n, so an append moves only that row.
func paddedRows[T any](p, n int) [][]T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	stride := n + (shardBlock+size-1)/size
	back := make([]T, p*stride)
	rows := make([][]T, p)
	for s := range rows {
		rows[s] = back[s*stride : s*stride+n : s*stride+n]
	}
	return rows
}

// workerPool is the persistent goroutine pool behind parallel phase-1
// execution: size-fixed, fed through a buffered task channel, joined at
// the round barrier via wg. It holds no engine reference of its own —
// tasks are closures — so a GC cleanup can shut it down once its engine
// is unreachable.
type workerPool struct {
	tasks chan shardTask
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// shardTask is one fan-out work item. fl is nil unless the flight
// recorder is on; when set, the worker times t.f and records the span
// under (ph, round). The extra fields cost one struct copy through the
// buffered channel either way — the timing-off path never branches
// past the nil check.
type shardTask struct {
	f     func(int)
	s     int
	fl    *flight
	ph    metrics.Phase
	round int
}

func newWorkerPool(workers int) *workerPool {
	w := &workerPool{tasks: make(chan shardTask, workers), stop: make(chan struct{})}
	for k := 0; k < workers; k++ {
		// Worker ids 1..workers: the caller goroutine is track 0 of the
		// flight recorder's timeline.
		go w.run(k + 1)
	}
	return w
}

func (w *workerPool) run(id int) {
	for {
		select {
		case t := <-w.tasks:
			if t.fl == nil {
				t.f(t.s)
			} else {
				start := time.Now()
				t.f(t.s)
				t.fl.task(id, t.ph, t.s, t.round, start)
			}
			w.wg.Done()
		case <-w.stop:
			return
		}
	}
}

func (w *workerPool) close() { w.once.Do(func() { close(w.stop) }) }

// Close releases the engine's worker goroutines (started lazily by the
// first parallel round). Optional: an unreachable engine's pool is
// closed by a GC cleanup, and a closed engine restarts its pool on the
// next parallel round — Close is for callers that want deterministic
// goroutine lifetimes (tests, long-lived processes cycling engines).
func (e *Engine) Close() {
	if e.shard.workers != nil {
		e.shard.workers.close()
		e.shard.workers = nil
	}
}

// labeled wraps a per-shard task in runtime/pprof labels when the
// engine was built WithPhaseLabels; otherwise it returns f unchanged
// (zero cost on the default path).
func (e *Engine) labeled(phase string, f func(int)) func(int) {
	if !e.phaseLabels {
		return f
	}
	return func(s int) {
		pprof.Do(context.Background(),
			pprof.Labels("phase", phase, "shard", strconv.Itoa(s)),
			func(context.Context) { f(s) })
	}
}

// runShards executes f(s) for every shard, tagged with the given pprof
// phase label when enabled. With one shard or one available CPU — and
// for delivery under WithSerialDelivery — it runs inline in ascending
// shard order (identical results — every phase is order-independent
// across shards); otherwise shards 1..p−1 are dispatched to the
// persistent pool while the caller runs shard 0, and the WaitGroup
// barrier joins the phase.
//
// With the flight recorder attached (e.flight != nil) every task is
// timed by its runner, and the caller additionally records its barrier
// wait and the fan-out's wall-clock; timing changes no dispatch or
// merge order, so results stay byte-identical with it on.
func (e *Engine) runShards(phase string, ph metrics.Phase, f func(int)) {
	p := e.shards
	f = e.labeled(phase, f)
	fl := e.flight
	if p == 1 || runtime.GOMAXPROCS(0) == 1 || (e.serialDeliver && ph == metrics.PhaseDeliver) {
		if fl == nil {
			for s := 0; s < p; s++ {
				f(s)
			}
			return
		}
		wall := time.Now()
		for s := 0; s < p; s++ {
			start := time.Now()
			f(s)
			fl.task(0, ph, s, e.round, start)
		}
		fl.wall(ph, e.round, wall)
		return
	}
	w := e.shard.workers
	if w == nil {
		w = newWorkerPool(p - 1)
		e.shard.workers = w
		// Reclaim the pool when the engine is dropped without Close. The
		// cleanup must not reference e (it would never become unreachable);
		// the pool itself holds no engine reference.
		runtime.AddCleanup(e, func(pw *workerPool) { pw.close() }, w)
	}
	w.wg.Add(p - 1)
	if fl == nil {
		for s := 1; s < p; s++ {
			w.tasks <- shardTask{f: f, s: s}
		}
		f(0)
		w.wg.Wait()
		return
	}
	wall := time.Now()
	for s := 1; s < p; s++ {
		w.tasks <- shardTask{f: f, s: s, fl: fl, ph: ph, round: e.round}
	}
	start := time.Now()
	f(0)
	fl.task(0, ph, 0, e.round, start)
	start = time.Now()
	w.wg.Wait()
	fl.barrier(ph, e.round, start)
	fl.wall(ph, e.round, wall)
}

// initShards builds the shard structures; called from New. An engine
// built without WithShards or WithPartition gets the sequential schedule
// on one shard.
func (e *Engine) initShards(seed int64) {
	n := e.graph.N()
	if e.shards == 0 {
		e.seq, e.shards = true, 1
	}
	if e.partition != nil {
		if err := e.partition.Validate(e.graph); err != nil {
			panic(err)
		}
		e.shards = len(e.partition.Shards)
	} else if e.shards > n && n > 0 {
		e.shards = n // more workers than nodes is pure overhead
	}
	p := e.shards
	ss := &shardState{
		nodes:   make([][]int32, p),
		shardOf: make([]int32, n),
		nodeRNG: make([]uint64, n),
		local:   make([]shardLocal, p),
		cursor:  make([]int, p),
	}
	buckets := paddedRows[[]*gossip.Message](p, p)
	dcurs := paddedRows[int](p, p)
	ests := paddedRows[float64](p, e.width)
	for s := range ss.local {
		ss.local[s].bucket = buckets[s]
		ss.local[s].dcur = dcurs[s]
		ss.local[s].est = ests[s]
	}
	if e.partition != nil {
		for s, list := range e.partition.Shards {
			// Private copies: joins append to the last shard's list, which
			// must not scribble on the caller's (possibly shared) partition.
			ss.nodes[s] = append(make([]int32, 0, len(list)), list...)
		}
	} else {
		backing := make([]int32, n)
		for i := range backing {
			backing[i] = int32(i)
		}
		for s := 0; s < p; s++ {
			lo, hi := s*n/p, (s+1)*n/p
			ss.nodes[s] = backing[lo:hi:hi]
		}
	}
	prev := int32(-1)
	ss.contig = true
	for s := 0; s < p; s++ {
		for _, i := range ss.nodes[s] {
			ss.shardOf[i] = int32(s)
			if i != prev+1 {
				ss.contig = false
			}
			prev = i
		}
	}
	ss.baseLast = len(ss.nodes[p-1])
	// Pre-size the inboxes for the expected per-round load (one data
	// message in expectation, Poisson tail, plus keepalives from every
	// neighbor under a detector): without this, millions of nodes keep
	// discovering new inbox high-water marks for thousands of rounds and
	// the steady state never becomes allocation-free.
	for i := range e.inbox {
		want := 8
		if e.det != nil {
			want += e.graph.Degree(i)
		}
		if cap(e.inbox[i]) < want {
			e.inbox[i] = make([]*gossip.Message, 0, want)
		}
	}
	ss.phase1Task = e.shardPhase1
	ss.deliverTask = e.deliverShard
	ss.errorsTask = e.errorsRange
	e.shard = ss
	e.seedNodeRNG(seed)
}

// splitmix64 constants (Steele, Lea & Flood, OOPSLA 2014).
const (
	smixGamma = 0x9E3779B97F4A7C15 // golden-ratio increment
	smixMul1  = 0xBF58476D1CE4E5B9
	smixMul2  = 0x94D049BB133111EB
)

// mix64 is the splitmix64 output function: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * smixMul1
	z = (z ^ (z >> 27)) * smixMul2
	return z ^ (z >> 31)
}

// seedNodeRNG derives every node's stream state from (seed, id) alone —
// never from shard layout — so the whole communication schedule is a
// pure function of the engine seed. The same derivation idiom as
// experiments.deriveSeed: decorrelate the lattice of inputs through one
// extra mix round.
func (e *Engine) seedNodeRNG(seed int64) {
	for i := range e.shard.nodeRNG {
		e.shard.nodeRNG[i] = mix64(uint64(seed) ^ (uint64(i)+1)*0x632BE59BD9B4E019)
	}
}

// draw returns a uniform value in [0, n) from node i's stream: advance
// by the splitmix64 gamma, mix, then map into range with a 64-bit
// multiply-shift (Lemire) — no divisions, bias below 2⁻⁴⁰ for any
// realistic degree.
func (e *Engine) draw(i, n int) int {
	e.shard.nodeRNG[i] += smixGamma
	hi, _ := bits.Mul64(mix64(e.shard.nodeRNG[i]), uint64(n))
	return int(hi)
}

// getMsgShard takes a message off shard s's free list (phase 1: only the
// owning worker calls this; delivery: only the task owning s). Callers
// must fully overwrite its header fields; the flow slices arrive reset
// to the engine width.
func (e *Engine) getMsgShard(s int) *gossip.Message {
	sl := &e.shard.local[s]
	if n := len(sl.pool); n > 0 {
		m := sl.pool[n-1]
		sl.pool = sl.pool[:n-1]
		e.rec.Bank(s).Inc(metrics.FreeListHits)
		return m
	}
	e.rec.Bank(s).Inc(metrics.FreeListMisses)
	return &gossip.Message{Flow1: gossip.NewValue(e.width), Flow2: gossip.NewValue(e.width)}
}

// putMsgShard recycles a message into shard s's free list, restoring its
// flow slices to the engine width from their capacity. Messages whose
// backing arrays cannot hold a full-width value (injector-fabricated
// ones, or ones from before a width change) are left to the garbage
// collector instead of poisoning the pool.
func (e *Engine) putMsgShard(s int, m *gossip.Message) {
	if cap(m.Flow1.X) < e.width || cap(m.Flow2.X) < e.width {
		return
	}
	m.Flow1.X = m.Flow1.X[:e.width]
	m.Flow2.X = m.Flow2.X[:e.width]
	sl := &e.shard.local[s]
	sl.pool = append(sl.pool, m)
}

// dropShardQueues recycles every queued but undelivered message and
// clears the staged events and keepalive counts — the per-trial shard
// state that Reset and Restore discard.
func (e *Engine) dropShardQueues() {
	for s := range e.shard.local {
		sl := &e.shard.local[s]
		for _, m := range sl.outbox {
			e.putMsgShard(s, m)
		}
		sl.outbox = sl.outbox[:0]
		for d, col := range sl.bucket {
			for _, m := range col {
				e.putMsgShard(s, m)
			}
			sl.bucket[d] = col[:0]
		}
		sl.keep = 0
		sl.events = sl.events[:0]
	}
}

// Step executes one round: activation of every live, running node — in
// a fresh permutation under the sequential schedule, in parallel per
// shard under the phase-split one — then delivery of what activation
// queued: parallel, one task per destination shard, on the worker pool,
// or the serial global-order merge when a stateful interceptor demands
// it. The sequential schedule queues nothing (every send was routed as
// it happened), so its delivery finds empty buckets.
func (e *Engine) Step() {
	fl := e.flight
	var roundStart time.Time
	if fl != nil {
		roundStart = time.Now()
		// The round mark is what places the event ring's round-stamped
		// instant events (faults, churn, snapshots, evictions) on the
		// timeline's time axis.
		fl.tl.MarkRound(e.round, roundStart)
	}
	if e.seq {
		e.activateSequential()
	} else {
		e.inPhase1 = true
		e.runShards("activate", metrics.PhaseActivate, e.shard.phase1Task)
		e.inPhase1 = false
	}
	e.foldKeepalives()
	if e.interceptor != nil {
		if fl == nil {
			e.mergeOutboxes()
		} else {
			start := time.Now()
			e.mergeOutboxes()
			fl.serial(metrics.PhaseMerge, e.round, start)
		}
	} else {
		e.deliverRound()
	}
	if fl == nil {
		e.flushShardEvents()
	} else {
		start := time.Now()
		e.flushShardEvents()
		fl.serial(metrics.PhaseFlush, e.round, start)
	}
	e.rebalancePools()
	if fl != nil {
		fl.serial(metrics.PhaseRound, e.round, roundStart)
	}
	e.round++
}

// activateSequential is the sequential schedule's activation: every
// live, running node, in a permutation shuffled from the engine's RNG,
// on the one internal shard. Under stepErrors the error scan follows
// the loop: a node's state is final for the round once it has
// activated, but the permutation is not the ascending order the errors
// are kept in.
func (e *Engine) activateSequential() {
	e.rng.Shuffle(len(e.perm), func(a, b int) { e.perm[a], e.perm[b] = e.perm[b], e.perm[a] })
	for _, i := range e.perm {
		if e.alive[i] && !e.hung[i] {
			e.activate(i, 0)
		}
	}
	if e.shard.fuseErrs {
		e.errorsRange(0)
	}
}

// foldKeepalives folds the per-shard phase-1 keepalive counters into the
// engine total at the round barrier.
func (e *Engine) foldKeepalives() {
	for s := range e.shard.local {
		e.keepalives += e.shard.local[s].keep
		e.shard.local[s].keep = 0
	}
}

// enqueue hands one of shard s's outgoing messages to delivery. The
// sequential schedule routes it immediately. The phase-split schedule
// queues it: into the (s → destination shard) bucket normally, or into
// the flat per-shard outbox when an interceptor is installed — stateful
// interceptors must observe the global total order only the serial merge
// provides, and the flat outbox preserves each node's intra-round send
// order (data before keepalives), which bucketing by destination would
// lose.
func (e *Engine) enqueue(s int, m *gossip.Message) {
	if e.seq {
		e.route(m, 0)
		return
	}
	sl := &e.shard.local[s]
	if e.interceptor != nil {
		sl.outbox = append(sl.outbox, m)
		return
	}
	d := e.shard.shardOf[m.To]
	sl.bucket[d] = append(sl.bucket[d], m)
}

// shardPhase1 runs the local half-round of every node in shard s, in
// ascending id order. It touches only node-local state plus the shard's
// own local[s] — the invariant that makes the phase embarrassingly
// parallel. Under stepErrors it also appends every alive node's oracle
// error to local[s].errs right after the node's activation, while its
// state is still in cache: a node's state is final for the round once
// it has activated (no other node's activation can reach it, and
// delivery only fills inboxes). Hung nodes skip activation but still get
// an error, exactly as the Errors scan would report them.
func (e *Engine) shardPhase1(s int) {
	sl := &e.shard.local[s]
	fuse := e.shard.fuseErrs
	sl.errs = sl.errs[:0]
	for _, i32 := range e.shard.nodes[s] {
		i := int(i32)
		if !e.alive[i] {
			continue
		}
		if !e.hung[i] {
			e.activate(i, s)
		}
		if fuse {
			sl.errs = append(sl.errs, e.nodeErr(sl, i))
		}
	}
}

// activate is one alive, running node's activation on shard s, shared by
// both schedules: drain the inbox, run the failure detector, push one
// message toward a random live neighbor, and queue keepalives.
func (e *Engine) activate(i, s int) {
	p := e.protos[i]
	e.drainInboxShard(i, s)
	if e.det != nil {
		for _, j := range e.det[i].Check(float64(e.round)) {
			p.OnLinkFailure(j)
			if e.detCfg.DisableReintegration {
				e.det[i].Remove(j)
			}
			if e.rec != nil {
				b := e.rec.Bank(s)
				b.Inc(metrics.Suspicions)
				b.Inc(metrics.Evictions)
				e.noteEvent(metrics.Event{Kind: metrics.EvLinkEvicted, Round: e.round, A: i, B: j})
			}
		}
	}
	if live := p.LiveNeighbors(); len(live) > 0 {
		var k int
		if e.seq {
			k = e.rng.Intn(len(live))
		} else {
			k = e.draw(i, len(live))
		}
		target := int(live[k])
		e.noteSent(i, target)
		e.rec.Bank(s).Inc(metrics.MsgsSent)
		m := e.getMsgShard(s)
		p.FillMessage(target, m)
		e.enqueue(s, m)
	}
	if e.det != nil {
		e.shardKeepalives(i, s)
	}
}

// drainInboxShard processes node i's inbox in index order (per-link
// FIFO), recycling each message into the draining shard's own free list
// — receivers never retain message backing (protocols copy payloads
// into their own state).
func (e *Engine) drainInboxShard(i, s int) {
	for k := 0; k < len(e.inbox[i]); k++ {
		m := e.inbox[i][k]
		e.dispatch(i, m)
		e.putMsgShard(s, m)
	}
	e.inbox[i] = e.inbox[i][:0]
}

// shardKeepalives pushes keepalives on node i's live links that have been
// idle for KeepaliveInterval rounds and probes suspected neighbors every
// ProbeInterval rounds, so that healed links reintegrate (after mutual
// eviction neither side gossips to the other; only probes can cross a
// recovered link). They are counted per shard and folded into the engine
// total at the round barrier.
func (e *Engine) shardKeepalives(i, s int) {
	for _, j32 := range e.protos[i].LiveNeighbors() {
		j := int(j32)
		if e.round-e.lastSent[i][j] >= e.detCfg.KeepaliveInterval {
			e.noteSent(i, j)
			e.shard.local[s].keep++
			e.rec.Bank(s).Inc(metrics.Keepalives)
			e.enqueue(s, e.makeControlShard(i, j, gossip.KindKeepalive, s))
		}
	}
	for _, j := range e.det[i].Suspects() {
		if e.round-e.lastSent[i][j] >= e.detCfg.ProbeInterval {
			e.noteSent(i, j)
			e.shard.local[s].keep++
			e.rec.Bank(s).Inc(metrics.Keepalives)
			e.enqueue(s, e.makeControlShard(i, j, gossip.KindKeepalive, s))
		}
	}
}

// makeControlShard produces a payload-free control message (keepalive or
// link-down notice) from shard s's free list: zero-width flows, exactly
// the wire shape a literal gossip.Message{Kind: ...} has, so
// interceptors that enumerate payload slots observe the same message
// shape either way.
func (e *Engine) makeControlShard(from, to int, kind gossip.Kind, s int) *gossip.Message {
	m := e.getMsgShard(s)
	m.From, m.To, m.Kind = from, to, kind
	m.C, m.R = 0, 0
	m.Flow1.X = m.Flow1.X[:0]
	m.Flow1.W = 0
	m.Flow2.X = m.Flow2.X[:0]
	m.Flow2.W = 0
	return m
}

// deliverRound is the parallel phase 2: one delivery task per
// destination shard, dispatched onto the worker pool (or run inline in
// ascending shard order under WithSerialDelivery — bit-identical, since
// the tasks touch pairwise-disjoint state).
func (e *Engine) deliverRound() {
	e.runShards("deliver", metrics.PhaseDeliver, e.shard.deliverTask)
}

// deliverShard routes every message destined for shard d's nodes into
// their inboxes, in ascending global source id order. On contiguous
// layouts that order is "bucket[0][d], then bucket[1][d], …"; on an
// arbitrary partition the task k-way-merges its P source buckets by
// smallest head source id (no ties — each source lives in exactly one
// shard), draining each node's run of sends in emission order. Touches
// only destination-shard-owned state: inboxes of d's nodes, pool d,
// counter bank d, and the streams of directed links into d.
func (e *Engine) deliverShard(d int) {
	local := e.shard.local
	if e.shard.contig {
		for s := range local {
			col := local[s].bucket[d]
			for _, m := range col {
				e.route(m, d)
			}
			local[s].bucket[d] = col[:0]
		}
		return
	}
	cur := local[d].dcur
	clear(cur)
	last := -1
	for {
		best, bestFrom := -1, 0
		for s := range local {
			col := local[s].bucket[d]
			if cur[s] < len(col) && (best < 0 || col[cur[s]].From < bestFrom) {
				best, bestFrom = s, col[cur[s]].From
			}
		}
		if best < 0 {
			break
		}
		if bestFrom < last {
			panic(fmt.Sprintf("sim: bucket (%d→%d) out of source id order (%d after %d)", best, d, bestFrom, last))
		}
		last = bestFrom
		col := local[best].bucket[d]
		for cur[best] < len(col) && col[cur[best]].From == bestFrom {
			e.route(col[cur[best]], d)
			cur[best]++
		}
	}
	for s := range local {
		local[s].bucket[d] = local[s].bucket[d][:0]
	}
}

// route applies the send path to one message on behalf of shard d, the
// shard that owns msg.To: the link-failure table, silencing, the crash
// check, per-link loss and, when installed, the interceptor with its
// replication and injection extensions, into the destination inbox.
// Dropped messages recycle into d's free list — the pool the message
// would have been drained into had it been delivered — and counters go
// to d's bank, so a parallel delivery task touches only state its
// destination shard owns. The interceptor branch runs only serially:
// from the sequential schedule's sends and from mergeOutboxes.
func (e *Engine) route(msg *gossip.Message, d int) {
	b := e.rec.Bank(d)
	key := linkKey(msg.From, msg.To)
	if e.dead[key] || e.silenced[key] || !e.alive[msg.To] {
		b.Inc(metrics.MsgsLost)
		e.putMsgShard(d, msg)
		return // sent into a broken, silenced or dead destination: lost
	}
	// Per-link heterogeneous loss: each directed link draws from its own
	// splitmix64 stream, touched only by the destination shard's task, so
	// the draw sequence per link — the only sequence that matters — is
	// identical for every shard count, layout and delivery order.
	if e.lossRates != nil && e.lossDrop(msg.From, msg.To) {
		b.Inc(metrics.MsgsLost)
		e.putMsgShard(d, msg)
		return
	}
	if e.interceptor == nil {
		b.Inc(metrics.MsgsDelivered)
		e.inbox[msg.To] = append(e.inbox[msg.To], msg)
		return
	}
	copies := 0
	if e.interceptor.Intercept(e.round, msg) {
		copies = 1
		if r, ok := e.interceptor.(Replicator); ok {
			copies = r.Copies(e.round, msg)
		}
	}
	if copies == 0 {
		b.Inc(metrics.MsgsDropped)
		e.putMsgShard(d, msg)
	} else {
		b.Inc(metrics.MsgsDelivered)
		e.inbox[msg.To] = append(e.inbox[msg.To], msg)
		for k := 1; k < copies; k++ {
			e.inbox[msg.To] = append(e.inbox[msg.To], e.cloneMsgShard(msg, d))
		}
	}
	if inj, ok := e.interceptor.(Injector); ok {
		for _, extra := range inj.Extra(e.round) {
			k := linkKey(extra.From, extra.To)
			if e.dead[k] || e.silenced[k] || !e.alive[extra.To] {
				continue
			}
			c := e.cloneMsgShard(&extra, int(e.shard.shardOf[extra.To]))
			e.inbox[extra.To] = append(e.inbox[extra.To], c)
		}
	}
}

// mergeOutboxes is the serial phase 2 used for interceptor rounds:
// route every queued message into its destination inbox in ascending
// GLOBAL source id order, so stateful-interceptor call sequences are
// identical for every shard count and layout. On contiguous layouts
// that order is exactly "shard 0's outbox, then shard 1's, …", so the
// merge walks the outboxes directly; on an arbitrary partition the
// outboxes are k-way-merged by smallest head source id (each shard's
// outbox is id-sorted — phase 1 activates ascending — and a node's
// sends are consecutive in its shard's outbox, so draining the head run
// reproduces the global order without scanning every node id).
func (e *Engine) mergeOutboxes() {
	local := e.shard.local
	if e.shard.contig {
		for s := range local {
			for _, m := range local[s].outbox {
				e.route(m, int(e.shard.shardOf[m.To]))
			}
			local[s].outbox = local[s].outbox[:0]
		}
		return
	}
	cur := e.shard.cursor
	clear(cur)
	last := -1
	for {
		best, bestFrom := -1, 0
		for s := range local {
			out := local[s].outbox
			if cur[s] < len(out) && (best < 0 || out[cur[s]].From < bestFrom) {
				best, bestFrom = s, out[cur[s]].From
			}
		}
		if best < 0 {
			break
		}
		if bestFrom < last {
			panic(fmt.Sprintf("sim: shard %d outbox out of source id order (%d after %d)", best, bestFrom, last))
		}
		last = bestFrom
		out := local[best].outbox
		for cur[best] < len(out) && out[cur[best]].From == bestFrom {
			m := out[cur[best]]
			e.route(m, int(e.shard.shardOf[m.To]))
			cur[best]++
		}
	}
	for s := range local {
		local[s].outbox = local[s].outbox[:0]
	}
}

// flushShardEvents moves phase-1-staged trace events into the
// recorder's ring in ascending emitting-node order — the same cursor
// merge as the outboxes, so the recorded stream is identical for every
// shard count and layout.
func (e *Engine) flushShardEvents() {
	local := e.shard.local
	total := 0
	for s := range local {
		total += len(local[s].events)
	}
	if total == 0 {
		return
	}
	if e.shard.contig {
		for s := range local {
			if len(local[s].events) > 0 {
				e.rec.RecordEvents(local[s].events)
			}
		}
	} else {
		// K-way merge by smallest head emitting-node id: a node's events
		// are consecutive in its shard's buffer (phase 1 activates
		// ascending), so draining each head run walks the events once
		// instead of scanning every node id per round.
		cur := e.shard.cursor
		clear(cur)
		for {
			best, bestA := -1, 0
			for s := range local {
				evs := local[s].events
				if cur[s] < len(evs) && (best < 0 || evs[cur[s]].A < bestA) {
					best, bestA = s, evs[cur[s]].A
				}
			}
			if best < 0 {
				break
			}
			evs := local[best].events
			for cur[best] < len(evs) && evs[cur[best]].A == bestA {
				e.rec.RecordEvent(evs[cur[best]])
				cur[best]++
			}
		}
	}
	for s := range local {
		local[s].events = local[s].events[:0]
	}
}

// rebalancePools evens out the per-shard free lists after the merge.
// Messages recycle into their *destination* shard's pool, so asymmetric
// cross-shard traffic slowly starves some pools while others grow; a
// starved pool allocates a fresh message for every send. Skimming the
// surplus above the mean back onto the poorer pools keeps every shard
// allocation-free in steady state, at the cost of a few pointer moves
// per round. Pool identity never influences results (a reused message
// is fully overwritten before delivery), so this is invisible to the
// byte-identical-across-P guarantee.
func (e *Engine) rebalancePools() {
	local := e.shard.local
	p := len(local)
	if p == 1 {
		return
	}
	total := 0
	for s := range local {
		total += len(local[s].pool)
	}
	target := total / p
	surplus := e.shard.surplus[:0]
	for s := range local {
		sl := &local[s]
		for len(sl.pool) > target+1 {
			l := len(sl.pool) - 1
			surplus = append(surplus, sl.pool[l])
			sl.pool[l] = nil
			sl.pool = sl.pool[:l]
		}
	}
	for s := 0; s < p && len(surplus) > 0; s++ {
		sl := &local[s]
		for len(sl.pool) <= target && len(surplus) > 0 {
			l := len(surplus) - 1
			sl.pool = append(sl.pool, surplus[l])
			surplus[l] = nil
			surplus = surplus[:l]
		}
	}
	e.shard.surplus = surplus[:0]
}

// cloneMsgShard deep-copies m into a message from shard s's pool.
func (e *Engine) cloneMsgShard(m *gossip.Message, s int) *gossip.Message {
	c := e.getMsgShard(s)
	c.From, c.To, c.Kind = m.From, m.To, m.Kind
	c.C, c.R = m.C, m.R
	c.Flow1.CopyFrom(m.Flow1)
	c.Flow2.CopyFrom(m.Flow2)
	return c
}

// stepErrors runs one round and returns the per-node oracle errors it
// ended with: Step followed by Errors, except that the errors are
// computed inside phase 1 (see shardPhase1 and activateSequential), which
// skips the separate errors fan-out and its barrier. The values, and
// their ascending-id order, are bit-identical to the Errors scan's. The
// returned slice is the Errors buffer.
func (e *Engine) stepErrors() []float64 {
	e.shard.fuseErrs = true
	e.Step()
	e.shard.fuseErrs = false
	return e.mergeShardErrs()
}

// mergeShardErrs concatenates the per-shard error slices into errBuf in
// ascending node id order — the same skip-dead sequence for every shard
// layout.
func (e *Engine) mergeShardErrs() []float64 {
	local := e.shard.local
	e.errBuf = e.errBuf[:0]
	if e.shard.contig {
		for s := range local {
			e.errBuf = append(e.errBuf, local[s].errs...)
		}
		return e.errBuf
	}
	cur := e.shard.cursor
	clear(cur)
	for i := 0; i < len(e.protos); i++ {
		if !e.alive[i] {
			continue
		}
		s := e.shard.shardOf[i]
		e.errBuf = append(e.errBuf, local[s].errs[cur[s]])
		cur[s]++
	}
	return e.errBuf
}

// errorsRange recomputes shard s's error slice: the worst relative error
// of every alive node in the shard, in ascending id order.
func (e *Engine) errorsRange(s int) {
	sl := &e.shard.local[s]
	sl.errs = sl.errs[:0]
	for _, i32 := range e.shard.nodes[s] {
		if i := int(i32); e.alive[i] {
			sl.errs = append(sl.errs, e.nodeErr(sl, i))
		}
	}
}

// nodeErr is the per-node error kernel shared by the fused and scanning
// paths: node i's worst relative error, estimated into sl's scratch.
func (e *Engine) nodeErr(sl *shardLocal, i int) float64 {
	sl.est = e.protos[i].EstimateInto(sl.est)
	return e.worstErr(sl.est)
}
