package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pcfreduce/internal/gossip"
)

// scriptedNodes drives four PCF nodes of the given variant through a
// fixed, hand-written schedule that reaches every mutation path of the
// node state: regular exchanges with cancellation, a link failure
// reversed by OnLinkRecover (snapshot restore), a link failure followed
// by a rewire onto the known neighbor (clean restart) and the hard
// resync it provokes, a brand-new neighbor joining, and a link failure
// left standing so a frozen edge snapshot is part of the final state.
// Values are two components wide and non-dyadic, so every float
// operation rounds.
func scriptedNodes(v Variant) []*Node {
	ns := []*Node{New(v), New(v), New(v), New(v)}
	ns[0].Reset(0, []int32{1, 2}, gossip.Vector([]float64{8.3, -3.1}, 1))
	ns[1].Reset(1, []int32{0, 2}, gossip.Vector([]float64{0.7, 5.9}, 1))
	ns[2].Reset(2, []int32{0, 1}, gossip.Vector([]float64{-2.2, 1.3}, 1))
	ns[3].Reset(3, nil, gossip.Vector([]float64{4.4, 0.1}, 1))
	exchange := func(a, b int) {
		ns[b].Receive(push(ns[a], b))
		ns[a].Receive(push(ns[b], a))
	}
	ring := func(rounds int) {
		for k := 0; k < rounds; k++ {
			exchange(0, 1)
			exchange(1, 2)
			exchange(2, 0)
		}
	}
	ring(7)

	// A lossy, reordering stretch on edge 1–2: dropped and late messages
	// leave the passive slots out of step (case (iii) of the handshake).
	var late gossip.Message
	for k := 0; k < 9; k++ {
		m := push(ns[1], 2)
		if k%3 != 0 {
			ns[2].Receive(m)
		}
		if k == 4 {
			late = push(ns[2], 1)
			continue
		}
		if k%4 != 1 {
			ns[1].Receive(push(ns[2], 1))
		}
	}
	ns[1].Receive(late)
	ring(2)

	// Link failure between 0 and 2, reversed: the frozen edges come back.
	ns[0].OnLinkFailure(2)
	ns[2].OnLinkFailure(0)
	exchange(0, 1)
	exchange(1, 2)
	ns[0].OnLinkRecover(2)
	ns[2].OnLinkRecover(0)
	ring(3)

	// One-sided failure and rewire: node 0 restarts its edge to 1 clean
	// (r = 1) while node 1 is several role changes ahead, so 1's next
	// message drives 0 through the hard-resync path.
	ns[0].OnLinkFailure(1)
	ns[0].OnNeighborJoin(1)
	ns[0].Receive(push(ns[1], 0))
	ring(2)

	// A brand-new neighbor joins node 0.
	ns[0].OnNeighborJoin(3)
	ns[3].OnNeighborJoin(0)
	for k := 0; k < 4; k++ {
		exchange(3, 0)
		ring(1)
	}

	// A failure left standing: node 2 keeps a frozen snapshot of edge 1.
	ns[2].OnLinkFailure(1)
	ns[1].OnLinkFailure(2)
	ring(2)
	return ns
}

// stateHash returns the SHA-256 of a node's four snapshot streams.
func stateHash(n *Node) string {
	var w gossip.StateWriter
	n.SaveState(&w)
	h := sha256.New()
	var b [8]byte
	for _, x := range w.F64 {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, x := range w.U64 {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, x := range w.I32 {
		binary.LittleEndian.PutUint32(b[:4], uint32(x))
		h.Write(b[:4])
	}
	h.Write(w.B)
	return hex.EncodeToString(h.Sum(nil))
}

// The checkpoint streams of both variants after the scripted run, pinned
// bit for bit. The constants were recorded on the earlier slot layout
// (one gossip.Value header per slot over a shared payload array); the
// stream order is part of the snapshot format, so any change to the
// node's storage layout must leave these hashes unchanged.
func TestSaveStateFingerprint(t *testing.T) {
	want := map[Variant][4]string{
		VariantEfficient: {
			"3470736593ead5191e744519b336a152f71b81cb471c6e8fd6a8af9f00e42add",
			"48fd0a6fee172c9b3616b3b7afc84eb1d485e7b1671c03ba806e2b5cc202bf4f",
			"68161170a3aa0ee66624b88849113a879696bb3c22b4b9a4d11eb228a6283cba",
			"8738218ff105ec5c106f88af0678f2dcc8ba99c83e30f43e1f17608b1d8602c9",
		},
		VariantRobust: {
			"eb2d7f42c2efdfcb3a35750fb412b5c5a271f116dcac65d533049d2c19c0b59e",
			"8aa307841107fb52ab497eebd339a1bc19abd2fb4fb05cf4a462a81b59e2ab03",
			"ea8a51f9eaa2eab5ab26bdbce6064d3c31ad7ce085ba3ed654cd939c82d1d0c6",
			"17793e1eadb285a36fcae4b95c6dc8132a4b581b766580c39c4df666e13045d8",
		},
	}
	for _, v := range []Variant{VariantEfficient, VariantRobust} {
		for i, n := range scriptedNodes(v) {
			if got := stateHash(n); got != want[v][i] {
				t.Errorf("%v node %d: state hash %s, want %s", v, i, got, want[v][i])
			}
		}
	}
}

// LoadState into a freshly Reset node followed by SaveState reproduces
// the saved streams exactly, and consumes them completely.
func TestLoadStateRoundTrip(t *testing.T) {
	for _, v := range []Variant{VariantEfficient, VariantRobust} {
		for i, n := range scriptedNodes(v) {
			var w gossip.StateWriter
			n.SaveState(&w)
			m := New(v)
			m.Reset(n.id, n.neighbors, gossip.NewValue(n.width))
			r := gossip.NewStateReader(w.State)
			m.LoadState(r)
			if r.Err() != nil || !r.Exhausted() {
				t.Fatalf("%v node %d: restore err=%v exhausted=%v", v, i, r.Err(), r.Exhausted())
			}
			if got, want := stateHash(m), stateHash(n); got != want {
				t.Fatalf("%v node %d: round trip hash %s, want %s", v, i, got, want)
			}
			if got, want := m.EstimateInto(nil), n.EstimateInto(nil); !sameBits(got, want) {
				t.Fatalf("%v node %d: restored estimate %v, want %v", v, i, got, want)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
