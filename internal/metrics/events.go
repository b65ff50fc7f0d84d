package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// EventKind classifies one traced event.
type EventKind uint8

const (
	// EvLinkFail: a quiescent (notified) link failure was injected.
	EvLinkFail EventKind = iota
	// EvLinkFailAbrupt: an abrupt link failure was injected (in-flight
	// messages destroyed, endpoints notified).
	EvLinkFailAbrupt
	// EvNodeCrash: a node crash (with link-down notification) was
	// injected.
	EvNodeCrash
	// EvLinkSilence: a silent link failure was injected (messages
	// vanish, no notification — detector territory).
	EvLinkSilence
	// EvLinkRestore: a silenced link was restored.
	EvLinkRestore
	// EvNodeCrashSilent: a node crashed without notifying anyone.
	EvNodeCrashSilent
	// EvNodeHang: a node stopped processing (still counted alive).
	EvNodeHang
	// EvNodeResume: a hung node resumed.
	EvNodeResume
	// EvLinkEvicted: a failure detector suspected a neighbor and the
	// protocol evicted the link from its live set.
	EvLinkEvicted
	// EvLinkReintegrated: a suspected neighbor was heard from again and
	// reintegrated.
	EvLinkReintegrated
	// EvEpochCrossed: the sampled max error first dropped below one of
	// the convergence thresholds (the event Value).
	EvEpochCrossed

	// EvNodeCheckpoint: node A froze its protocol state into a local
	// checkpoint (the crash-restart recovery mode's save point).
	EvNodeCheckpoint
	// EvNodeRestart: crashed node A restarted from its last local
	// checkpoint and is rejoining via the snapshot-restore handshake.
	EvNodeRestart
	// EvSnapshot: a full engine snapshot was taken at this round.
	EvSnapshot
	// EvRestore: the engine state was restored from a snapshot taken at
	// this round.
	EvRestore
	// EvReplay: a replay run resumed execution from a restored snapshot
	// at this round.
	EvReplay

	// EvNodeJoin: node A joined the open-world overlay with its own
	// initial mass.
	EvNodeJoin
	// EvNodeLeave: node A left gracefully, flushing its surplus to a
	// live neighbor (B) before removal; B is -1 when no live neighbor
	// remained and the surplus was lost.
	EvNodeLeave
	// EvEdgeRewire: the overlay edge (A, B) was rewired away (the new
	// endpoint is traced by the engine alongside).
	EvEdgeRewire
	// EvSetLinkLoss: the per-link loss rate of link (A, B) changed to
	// the event Value.
	EvSetLinkLoss

	numEventKinds int = iota
)

var eventKindNames = [numEventKinds]string{
	"link-fail",
	"link-fail-abrupt",
	"node-crash",
	"link-silence",
	"link-restore",
	"node-crash-silent",
	"node-hang",
	"node-resume",
	"link-evicted",
	"link-reintegrated",
	"epoch-crossed",
	"node-checkpoint",
	"node-restart",
	"snapshot",
	"restore",
	"replay",
	"node-join",
	"node-leave",
	"edge-rewire",
	"set-link-loss",
}

func (k EventKind) String() string {
	if int(k) >= numEventKinds {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindNames[k]
}

// Event is one typed trace entry. Events are rare (faults, detector
// transitions, convergence epochs) — per-message traffic never produces
// events, only counters.
type Event struct {
	Kind EventKind
	// Round is the engine round the event happened in (-1 in the
	// concurrent runtime, which has no rounds).
	Round int
	// TimeS is the wall-clock offset in seconds since Run started
	// (concurrent runtime only; 0 in the simulator).
	TimeS float64
	// A and B are the event's node ids: the affected node (A) and, for
	// link events, the far endpoint (B). -1 when not applicable.
	A, B int
	// Value is a kind-specific payload: the threshold crossed for
	// EvEpochCrossed, 0 otherwise.
	Value float64
}

// MarshalJSON writes the compact JSONL form, omitting fields that do
// not apply (-1 ids, zero time, zero value).
func (e Event) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"kind":%q`, e.Kind.String())
	if e.Round >= 0 {
		fmt.Fprintf(&buf, `,"round":%d`, e.Round)
	}
	if e.TimeS != 0 {
		buf.WriteString(`,"t":`)
		buf.WriteString(strconv.FormatFloat(e.TimeS, 'g', -1, 64))
	}
	if e.A >= 0 {
		fmt.Fprintf(&buf, `,"a":%d`, e.A)
	}
	if e.B >= 0 {
		fmt.Fprintf(&buf, `,"b":%d`, e.B)
	}
	if e.Value != 0 {
		buf.WriteString(`,"value":`)
		buf.WriteString(strconv.FormatFloat(e.Value, 'g', -1, 64))
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON reads the form written by MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	var aux struct {
		Kind  string  `json:"kind"`
		Round *int    `json:"round"`
		TimeS float64 `json:"t"`
		A     *int    `json:"a"`
		B     *int    `json:"b"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	*e = Event{Kind: EventKind(numEventKinds), Round: -1, TimeS: aux.TimeS, A: -1, B: -1, Value: aux.Value}
	for i, name := range eventKindNames {
		if name == aux.Kind {
			e.Kind = EventKind(i)
			break
		}
	}
	if int(e.Kind) == numEventKinds {
		return fmt.Errorf("metrics: unknown event kind %q", aux.Kind)
	}
	if aux.Round != nil {
		e.Round = *aux.Round
	}
	if aux.A != nil {
		e.A = *aux.A
	}
	if aux.B != nil {
		e.B = *aux.B
	}
	return nil
}

// ring is a fixed-capacity event buffer: once full, the oldest events
// are overwritten (and counted as dropped) so a long run keeps the
// most recent window. A mutex is fine here — events are orders of
// magnitude rarer than messages.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	count   int
	dropped uint64
}

func (r *ring) put(ev Event) {
	r.mu.Lock()
	if r.count < len(r.buf) {
		r.buf[(r.start+r.count)%len(r.buf)] = ev
		r.count++
	} else {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *ring) putAll(evs []Event) {
	r.mu.Lock()
	for _, ev := range evs {
		if r.count < len(r.buf) {
			r.buf[(r.start+r.count)%len(r.buf)] = ev
			r.count++
		} else {
			r.buf[r.start] = ev
			r.start = (r.start + 1) % len(r.buf)
			r.dropped++
		}
	}
	r.mu.Unlock()
}

// snapshot returns the buffered events oldest-first.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// RecordEvent appends one event to the trace ring. No-op when nil.
func (r *Recorder) RecordEvent(ev Event) {
	if r == nil {
		return
	}
	r.ring.put(ev)
}

// RecordEvents appends a batch of events under one lock acquisition —
// the simulator flushes its per-shard staging buffers through this at
// the round barrier.
//
// Ordering contract: within one round, the sharded executor flushes
// staged events sorted by ascending *emitting node id* (Event.A),
// regardless of how many workers ran the phases or which shard staged
// which event. The shards are contiguous id ranges, so ascending node
// id coincides with concatenating the per-shard buffers in ascending
// shard order, and the ring contents stay byte-identical across shard
// and worker counts (pinned by TestShardEventFlushOrder in
// internal/sim). Across rounds, batches
// append in round order because the flush runs in the serial section
// of the round barrier.
func (r *Recorder) RecordEvents(evs []Event) {
	if r == nil || len(evs) == 0 {
		return
	}
	r.ring.putAll(evs)
}

// Events returns the buffered events, oldest first (nil when the
// recorder is nil).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}

// EventsDropped reports how many events were overwritten because the
// ring was full.
func (r *Recorder) EventsDropped() uint64 {
	if r == nil {
		return 0
	}
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	return r.ring.dropped
}

// WriteEventsJSONL writes the buffered events as one JSON object per
// line, oldest first.
func (r *Recorder) WriteEventsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
