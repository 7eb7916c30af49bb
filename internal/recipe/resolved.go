package recipe

import (
	"sync"

	"mpu/internal/isa"
	"mpu/internal/micro"
)

// expandKey identifies an expansion process-wide: recipe selection depends
// only on the back end's capability set and the instruction itself.
type expandKey struct {
	caps micro.CapabilitySet
	in   isa.Instr
}

// expansion is one memoized ExpandResolved result. The slices are shared by
// every caller and must be treated as immutable.
type expansion struct {
	ops  []micro.Op
	rops []micro.ResolvedOp
	err  error
}

// expansions memoizes ExpandResolved across all machines in the process.
// Recipe expansion is deterministic in (caps, instr), so a sweep that builds
// hundreds of machines over the same back ends pays the gate-level expander
// and its resolution once per distinct instruction instead of once per
// machine.
var expansions sync.Map // expandKey -> *expansion

// ExpandResolved is Expand plus the slot-resolved form of the same stream,
// for executors and the trace engine that replay expansions many times: the
// resolution (and its constant-plane write verification) is paid once per
// process instead of per execution. Callers must not mutate the returned
// slices.
func ExpandResolved(caps micro.CapabilitySet, in isa.Instr) ([]micro.Op, []micro.ResolvedOp, error) {
	k := expandKey{caps: caps, in: in}
	if e, ok := expansions.Load(k); ok {
		x := e.(*expansion)
		return x.ops, x.rops, x.err
	}
	x := &expansion{}
	x.ops, x.err = Expand(caps, in)
	if x.err != nil {
		x.ops = nil
	} else {
		x.rops = micro.Resolve(x.ops)
	}
	// First publication wins, so the slices are canonical: callers may key
	// derived artefacts by their identity.
	if prev, loaded := expansions.LoadOrStore(k, x); loaded {
		x = prev.(*expansion)
	}
	return x.ops, x.rops, x.err
}
