package recipe

import (
	"math"
	"slices"
	"sync"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// The host stream. A recipe's micro-ops are what the datapath issues, and
// every one of them is charged: they set cycles and energy. The host only
// has to leave the state they leave. A gate the datapath decomposes computes
// one native op's function of its sources, lane by lane — RACER's full adder
// is twenty NORs, the host's one FADD — so the host stream runs that op in
// the gate's place wherever nothing outside the gate observes the planes it
// used on the way. That holds because every op of a stream runs under the one mask, every
// emitter reads its sources before it writes, and gFullAdd's outputs never
// alias its inputs.

// final marks a value still in its slot when the stream ends.
const final = math.MaxInt32

// ExpandHost is ExpandResolved's resolved stream plus the host stream: the
// same computation with each gate call whose intermediate values nothing
// outside it observes collapsed into its native op. Run under any mask from
// any state, the host stream leaves every slot — registers, scratch, temps
// and cond — bit-identical to the resolved one. The resolved stream is still
// what an execution charges, and what the reference interpreter runs.
func ExpandHost(caps micro.CapabilitySet, in isa.Instr) (rops, host []micro.ResolvedOp, err error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	e := newExpander(caps)
	e.spans = sc.spans[:0]
	err = e.instr(in)
	sc.spans = e.spans[:0]
	if err != nil {
		return nil, nil, err
	}
	rops = micro.Resolve(e.finish())
	return rops, e.hostStream(rops, sc), nil
}

// scratch is what lowering one expansion uses and drops: the spans, the
// observed table and the host stream before its copy. Expansions reuse it
// through scratchPool.
type scratch struct {
	spans []span
	seen  []int32
	host  []micro.ResolvedOp
}

var scratchPool = sync.Pool{New: func() any { return &scratch{spans: make([]span, 0, 64)} }}

// hostStream lowers rs, the resolved form of the expansion, through the
// recorded spans: a span collapses into its native op when no value written
// inside it, other than to the gate's destinations, is observed after it; a
// span that does not collapse keeps its loose micro-ops and tries its
// children in turn.
func (e *expander) hostStream(rs []micro.ResolvedOp, sc *scratch) []micro.ResolvedOp {
	seen := observed(rs, sc)
	host := sc.host[:0]
	defer func() { sc.host = host[:0] }()
	pos := int32(0)
	for k := 0; k < len(e.spans); {
		sp := &e.spans[k]
		host = append(host, rs[pos:sp.start]...)
		pos = sp.start
		k++
		op := micro.ResolveOp(sp.op)
		if collapsible(rs[sp.start:sp.end], seen[2*sp.start:2*sp.end], op, sp.end) {
			host = append(host, op)
			pos = sp.end
			for k < len(e.spans) && e.spans[k].start < sp.end {
				k++ // the children of a collapsed span
			}
		}
	}
	// A copy at its length: the decode table keeps the stream.
	return slices.Clone(append(host, rs[pos:]...))
}

// observed reports, for each value an op of rs writes, the index of the last
// op that reads it (the writer's own when none does), or final when the value
// is still in its slot at the end of the stream: entry 2i is op i's Dst
// (SlotCond for CONDWR), entry 2i+1 a FADD's Dst2.
func observed(rs []micro.ResolvedOp, sc *scratch) []int32 {
	if cap(sc.seen) < 2*len(rs) {
		sc.seen = make([]int32, 2*len(rs))
	}
	seen := sc.seen[:2*len(rs)]
	var cur [micro.NumSlots]int32 // 1 + the entry of the value each slot holds; 0 for its initial one
	read := func(s micro.Slot, i int32) {
		if w := cur[s]; w > 0 {
			seen[w-1] = i
		}
	}
	for j := range rs {
		r, i := &rs[j], int32(j)
		switch r.Kind {
		case micro.MAJ, micro.MUX, micro.FADD:
			read(r.C, i)
			fallthrough
		case micro.NOR, micro.AND, micro.OR, micro.XOR:
			read(r.B, i)
			fallthrough
		case micro.NOT, micro.COPY, micro.CONDWR:
			read(r.A, i)
		}
		d := r.Dst
		if r.Kind == micro.CONDWR {
			d = micro.SlotCond
		}
		seen[2*i], cur[d] = i, 2*i+1
		if r.Kind == micro.FADD {
			seen[2*i+1], cur[r.Dst2] = i, 2*i+2
		}
	}
	for _, w := range cur {
		if w > 0 {
			seen[w-1] = final
		}
	}
	return seen
}

// collapsible reports whether the span ops, ending at stream index end, may
// run as op: it holds no CONDWR or MASKRD (they write every lane, not only
// the enabled ones), and every value it writes to a slot other than op's
// destinations is dead by end. seen is observed's result for ops.
func collapsible(ops []micro.ResolvedOp, seen []int32, op micro.ResolvedOp, end int32) bool {
	d2 := op.Dst
	if op.Kind == micro.FADD {
		d2 = op.Dst2
	}
	for i := range ops {
		r := &ops[i]
		switch {
		case r.Kind == micro.CONDWR || r.Kind == micro.MASKRD:
			return false
		case r.Dst != op.Dst && r.Dst != d2 && seen[2*i] >= end:
			return false
		case r.Kind == micro.FADD && r.Dst2 != op.Dst && r.Dst2 != d2 && seen[2*i+1] >= end:
			return false
		}
	}
	return true
}
