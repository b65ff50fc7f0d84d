package core

// PCF node state layout, the flat-vector kernels that operate on it, and
// checkpoint support.
//
// Every float a node owns lives in one []float64 at a fixed stride of
// width+1: a vector's width X components followed by its weight W. The
// vectors are, in order, the input v, the accumulated flow ϕ, the
// scratch local mass, and then both flow slots of edge 0, of edge 1,
// and so on (edge k's slot s is vector 3+2k+s). An exchange touches ϕ,
// the scratch vector and one edge's two slots, which are two adjacent
// runs of the array, and the robust variant's local-mass pass streams
// through the slot region front to back.
//
// The kernels apply, element by element, exactly the operation the
// corresponding gossip.Value method applies to X and W, so results are
// bit-identical to arithmetic on Values.
//
// The snapshot streams (gossip.Protocol.SaveState and LoadState) have
// a fixed order that is part of the checkpoint format, independent of
// the in-memory layout: v and ϕ (X then W), every slot's X components
// contiguously, every slot's W, the (c, r) control pairs, the frozen
// pre-eviction edge snapshots and the live list. The live list is
// serialized verbatim — its order encodes the reintegration history and
// feeds the engine's target draw, so sorting or rebuilding it would
// break bit-identical replay. The scratch vector is deliberately
// absent: it is fully overwritten before every use.

import (
	"fmt"

	"pcfreduce/internal/gossip"
)

// Vector positions in Node.state, in units of the stride.
const (
	vecInit    = 0
	vecPhi     = 1
	vecScratch = 2
	vecSlots   = 3 // edge k's slot s is vecSlots + 2k + s
)

// vec returns the flat vector at position i of the state array.
func (n *Node) vec(i int) []float64 {
	lo := i * n.stride
	return n.state[lo : lo+n.stride : lo+n.stride]
}

// slot returns slot s (0 or 1) of edge k.
func (n *Node) slot(k, s int) []float64 { return n.vec(vecSlots + 2*k + s) }

// edge returns edge k's two slots as one flat run of 2·stride floats.
func (n *Node) edge(k int) []float64 {
	lo := (vecSlots + 2*k) * n.stride
	hi := lo + 2*n.stride
	return n.state[lo:hi:hi]
}

// addVec sets dst ← dst + src.
func addVec(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += x
	}
}

// subVec sets dst ← dst − src.
func subVec(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] -= x
	}
}

// halfVec sets v ← v/2.
func halfVec(v []float64) {
	for i := range v {
		v[i] /= 2
	}
}

// addValue sets dst ← dst + u.
func addValue(dst []float64, u gossip.Value) {
	w := len(u.X)
	dst = dst[:w+1]
	for i, x := range u.X {
		dst[i] += x
	}
	dst[w] += u.W
}

// subValue sets dst ← dst − u.
func subValue(dst []float64, u gossip.Value) {
	w := len(u.X)
	dst = dst[:w+1]
	for i, x := range u.X {
		dst[i] -= x
	}
	dst[w] -= u.W
}

// setValue sets dst ← u.
func setValue(dst []float64, u gossip.Value) {
	w := len(u.X)
	copy(dst[:w], u.X)
	dst[w] = u.W
}

// setNegValue sets dst ← −u.
func setNegValue(dst []float64, u gossip.Value) {
	w := len(u.X)
	dst = dst[:w+1]
	for i, x := range u.X {
		dst[i] = -x
	}
	dst[w] = -u.W
}

// equalNegValue reports u == −v exactly, as u.EqualNeg would for v as a
// Value.
func equalNegValue(u gossip.Value, v []float64) bool {
	w := len(u.X)
	v = v[:w+1]
	if u.W != -v[w] {
		return false
	}
	for i, x := range u.X {
		if x != -v[i] {
			return false
		}
	}
	return true
}

// view returns v as a Value whose X aliases v; W is a copy.
func view(v []float64) gossip.Value {
	w := len(v) - 1
	return gossip.Value{X: v[:w:w], W: v[w]}
}

// cloneValue returns v as a freshly allocated Value.
func cloneValue(v []float64) gossip.Value { return view(v).Clone() }

// store copies v into dst with the semantics of dst.Set.
func store(dst *gossip.Value, v []float64) { dst.Set(view(v)) }

// checkWidth panics when an input Value does not have the node's width;
// op names the method for the message.
func (n *Node) checkWidth(op string, v gossip.Value) {
	if v.Width() != n.width {
		panic(fmt.Sprintf("core: %s with width %d on a node of width %d", op, v.Width(), n.width))
	}
}

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutF64s(n.vec(vecInit))
	w.PutF64s(n.vec(vecPhi))
	slots := n.state[vecSlots*n.stride:]
	for lo := 0; lo < len(slots); lo += n.stride {
		w.PutF64s(slots[lo : lo+n.width])
	}
	for lo := n.width; lo < len(slots); lo += n.stride {
		w.PutF64(slots[lo])
	}
	for k := range n.c {
		w.PutByte(n.c[k])
		w.PutU64(n.r[k])
	}
	for _, s := range n.saved {
		if s == nil {
			w.PutBool(false)
			continue
		}
		w.PutBool(true)
		w.PutF64s(s.f)
		w.PutByte(s.c)
		w.PutU64(s.r)
	}
	w.PutI32s(n.live)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	copy(n.vec(vecInit), r.F64s(n.stride))
	copy(n.vec(vecPhi), r.F64s(n.stride))
	slots := n.state[vecSlots*n.stride:]
	if xs := r.F64s(len(slots) / n.stride * n.width); xs != nil {
		for lo := 0; lo < len(slots); lo += n.stride {
			xs = xs[copy(slots[lo:lo+n.width], xs):]
		}
	}
	for lo := n.width; lo < len(slots); lo += n.stride {
		slots[lo] = r.F64()
	}
	for k := range n.c {
		n.c[k] = r.Byte()
		n.r[k] = r.U64()
	}
	for k := range n.saved {
		if !r.Bool() {
			n.saved[k] = nil
			continue
		}
		s := &edgeSnapshot{f: make([]float64, 2*n.stride)}
		copy(s.f, r.F64s(len(s.f)))
		s.c = r.Byte()
		s.r = r.U64()
		n.saved[k] = s
	}
	n.live = append(n.live[:0], r.I32s()...)
}
