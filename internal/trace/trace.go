// Package trace implements the record-once/replay-many execution engine
// for compute-ensemble bodies. The Fig. 10 scheduler replays an ensemble
// body once per thermal activation round; for the bodies the lint CFG
// proves straight-line or statically resolvable (internal/lint.ClassifyBody)
// every round executes the identical instruction path with identical
// per-round costs. The machine therefore interprets such a body once, under
// a Recorder that turns it into a Trace — one step per data-mutating
// instruction, each exec step holding the instruction's pc and the kernel
// its decode already compiled, with JUMP/RETURN folded away, plus the
// precomputed per-round cycle/energy/stat deltas — and replays later rounds
// in O(1) accounting time: run the steps over the round's activated VRFs and
// add the aggregated deltas. As the paper's compute controller reissues each
// buffered instruction's recipe every round (§VI-B), a replay runs the
// instructions' own kernels; nothing is compiled per body.
//
// Bodies with data-dependent control flow (JUMP_COND), bodies that spill
// the playback buffer, and rounds whose recipe-cache residency cannot
// guarantee all-hit decode fall back to the interpreter unchanged.
package trace

import (
	"sort"

	"mpu/internal/controlpath"
	"mpu/internal/vrf"
)

// Key identifies a recorded body within one core's program: the body entry
// pc and the lexical body length. The capability set and decode
// configuration are fixed per machine, so they need no key bits; the cache
// is invalidated wholesale when a new program is loaded.
type Key struct {
	BodyStart, BodyLen int
}

// StepKind discriminates the data-mutating operations a replayed round
// applies to each activated VRF.
type StepKind uint8

const (
	// StepExec runs one datapath instruction's kernel.
	StepExec StepKind = iota
	// StepSetMaskCond loads the lane mask from the conditional register.
	StepSetMaskCond
	// StepSetMaskReg loads the lane mask from bit 0 of register Arg.
	StepSetMaskReg
	// StepUnmask re-enables every lane.
	StepUnmask
	// StepGetMask copies the lane mask into register Arg.
	StepGetMask
)

// Step is one data-mutating operation of a recorded body.
type Step struct {
	Kind StepKind
	Arg  uint8
	// PC and Kern are a StepExec's datapath instruction: its program
	// counter, and the process-wide kernel its decode entry holds, shared by
	// pointer and never written through.
	PC   int
	Kern *vrf.CompiledExec
}

// Trace is a recorded ensemble body: the replayable step stream plus the
// aggregated charge deltas one execution round costs. Integer deltas are
// order-insensitive; the two float deltas (EnergyPerVRF, HostEnergyPJ) are
// accumulated during recording in exactly the per-round order the
// interpreter uses, so replaying them reproduces bit-identical energies.
type Trace struct {
	Steps []Step
	EndPC int // pc just past COMPUTE_DONE

	Cycles         int64   // core cycle delta (all-hit decode; incl. offload latency)
	Issue          int64   // micro-op issue cycles (front-end dynamic energy)
	Instructions   uint64  // dynamic instructions, COMPUTE_DONE included
	ComputeCycles  int64   // datapath execution share of Cycles
	MicroOpsPerVRF uint64  // micro-ops executed per activated VRF
	EnergyPerVRF   float64 // datapath pJ per activated VRF
	Offloads       uint64  // Baseline host round trips (JUMP/RETURN)
	OffloadCycles  int64   // their latency share of Cycles
	HostEnergyPJ   float64 // their energy

	// Recipe-decode replay state (ModeMPU): the distinct lookups the body
	// performs, the per-round lookup count, and the body's opcodes in
	// last-occurrence order for LRU-exact touch replay.
	Lookups    []controlpath.LookupPair
	NumLookups uint64
	TouchOrder []uint8

	// Replayed is set on the trace's first replayed round, which counts
	// the trace in Stats.JITCompiles.
	Replayed bool

	width int // VRFs Run advances together: the widest exec step's group width
}

// Run applies the body's steps to one round's activated VRFs, which must be
// distinct: a group of Width VRFs at a time, and a remainder smaller than
// that together. Within a group each step runs on every VRF before the next
// step starts — exec steps through vrf.RunCompiledGroups, mask steps VRF by
// VRF — so each VRF sees the words, order and mask an interpreted round
// gives it.
func (t *Trace) Run(vs []*vrf.VRF) {
	for len(vs) > 0 {
		g := vs[:min(t.width, len(vs))]
		for i := range t.Steps {
			s := &t.Steps[i]
			switch s.Kind {
			case StepExec:
				vrf.RunCompiledGroups(s.Kern, g)
			case StepSetMaskCond:
				for _, v := range g {
					v.SetMaskFromCond()
				}
			case StepSetMaskReg:
				for _, v := range g {
					v.SetMaskFromReg(int(s.Arg))
				}
			case StepUnmask:
				for _, v := range g {
					v.Unmask()
				}
			case StepGetMask:
				for _, v := range g {
					v.GetMaskInto(int(s.Arg))
				}
			}
		}
		vs = vs[len(g):]
	}
}

// Width reports how many VRFs Run advances together: the widest exec
// step's vrf.CompiledExec.GroupWidth.
func (t *Trace) Width() int { return t.width }

// seal computes the replay width from the steps' kernels.
func (t *Trace) seal() {
	t.width = 1
	for i := range t.Steps {
		if k := t.Steps[i].Kern; k != nil {
			t.width = max(t.width, k.GroupWidth())
		}
	}
}

// Cache holds one core's recorded bodies, each entry carrying the
// memoized CFG-classification verdict separately from the recording
// outcome. The split matters for ineligible (dynamic) bodies: their
// verdict is computed once and every later activation skips straight to
// the interpreter without re-running lint.ClassifyBody or consulting the
// recorder.
type Cache struct {
	m map[Key]*cacheEntry
}

type cacheEntry struct {
	classified bool // Eligible's verdict has been memoized
	eligible   bool // ClassifyBody proved the body straight-line/static
	done       bool // a recording attempt concluded (tr may still be nil)
	tr         *Trace
}

// NewCache returns an empty trace cache.
func NewCache() *Cache { return &Cache{m: map[Key]*cacheEntry{}} }

func (c *Cache) entry(k Key) *cacheEntry {
	e := c.m[k]
	if e == nil {
		e = &cacheEntry{}
		c.m[k] = e
	}
	return e
}

// Eligible reports whether the body may be traced at all, invoking
// classify at most once per key — the verdict is memoized for the life of
// the cache (a program reload Resets it).
func (c *Cache) Eligible(k Key, classify func() bool) bool {
	e := c.entry(k)
	if !e.classified {
		e.eligible = classify()
		e.classified = true
	}
	return e.eligible
}

// Lookup returns the cached trace and whether a recording attempt has
// concluded. A (nil, true) result is a negative entry: the recording
// proved the body unreplayable, so later executions skip straight to the
// interpreter.
func (c *Cache) Lookup(k Key) (*Trace, bool) {
	e := c.m[k]
	if e == nil {
		return nil, false
	}
	return e.tr, e.done
}

// Install records the outcome of a recording attempt: a recorded trace, or
// nil to mark the body unreplayable.
func (c *Cache) Install(k Key, t *Trace) {
	e := c.entry(k)
	e.tr, e.done = t, true
}

// Reset drops every entry (program reload).
func (c *Cache) Reset() {
	if len(c.m) > 0 {
		c.m = map[Key]*cacheEntry{}
	}
}

// Recorder compiles a Trace while the interpreter executes a body's first
// round. The machine drives it at every charge point; if the body turns out
// to do anything a replay could not reproduce — pop a return-address frame
// it did not push, leave a frame behind, execute a data-dependent branch,
// or decode one opcode at two different expansion sizes — the recording
// aborts and Finish returns nil.
//
// Every recording method is a no-op on a nil *Recorder, so the interpreter
// drives the hooks unconditionally and passes nil for unrecorded rounds.
type Recorder struct {
	t       Trace
	depth   int // return-stack depth relative to body entry
	aborted bool
	sizes   map[uint8]int // opcode -> expansion micro-ops
	last    map[uint8]int // opcode -> last lookup ordinal
}

// NewRecorder starts recording one body round.
func NewRecorder() *Recorder {
	return &Recorder{sizes: map[uint8]int{}, last: map[uint8]int{}}
}

// Abort marks the recording unusable.
func (r *Recorder) Abort() {
	if r == nil {
		return
	}
	r.aborted = true
}

// Aborted reports whether the recording was abandoned.
func (r *Recorder) Aborted() bool { return r != nil && r.aborted }

// Instr notes one executed body instruction.
func (r *Recorder) Instr() {
	if r == nil {
		return
	}
	r.t.Instructions++
}

// Cycles adds plain control cycles (mask ops, NOP, redirects, EFI reads).
func (r *Recorder) Cycles(n int64) {
	if r == nil {
		return
	}
	r.t.Cycles += n
}

// Lookup notes one recipe-table decode (ModeMPU datapath instruction).
func (r *Recorder) Lookup(opcode uint8, microOps int) {
	if r == nil {
		return
	}
	if prev, ok := r.sizes[opcode]; ok {
		if prev != microOps {
			// Two expansion sizes under one opcode can never be resident
			// simultaneously, so replay could never be all-hit.
			r.aborted = true
		}
	} else {
		r.sizes[opcode] = microOps
		r.t.Lookups = append(r.t.Lookups, controlpath.LookupPair{Opcode: opcode, MicroOps: microOps})
	}
	r.t.NumLookups++
	r.last[opcode] = int(r.t.NumLookups)
}

// Exec records one datapath instruction: a step holding its pc and kernel,
// its execution cycles, and its per-VRF energy.
func (r *Recorder) Exec(pc int, kern *vrf.CompiledExec, exec int64, perVRFPJ float64) {
	if r == nil {
		return
	}
	r.t.Steps = append(r.t.Steps, Step{Kind: StepExec, PC: pc, Kern: kern})
	n := kern.Ops()
	r.t.Cycles += exec
	r.t.ComputeCycles += exec
	r.t.Issue += int64(n)
	r.t.MicroOpsPerVRF += n
	r.t.EnergyPerVRF += perVRFPJ
}

// Mask records a mask-manipulating step.
func (r *Recorder) Mask(kind StepKind, arg uint8) {
	if r == nil {
		return
	}
	r.t.Steps = append(r.t.Steps, Step{Kind: kind, Arg: arg})
}

// Offload records one Baseline host round trip inside the body.
func (r *Recorder) Offload(lat int64, pj float64) {
	if r == nil {
		return
	}
	r.t.Offloads++
	r.t.OffloadCycles += lat
	r.t.Cycles += lat
	r.t.HostEnergyPJ += pj
}

// Push notes a JUMP pushing a return frame.
func (r *Recorder) Push() {
	if r == nil {
		return
	}
	r.depth++
}

// Pop notes a RETURN consuming one. Popping a frame the body did not push
// makes the body's path depend on caller state, so the recording aborts.
func (r *Recorder) Pop() {
	if r == nil {
		return
	}
	r.depth--
	if r.depth < 0 {
		r.aborted = true
	}
}

// Finish seals the recording. It returns nil if the body proved
// unreplayable: aborted, or return-stack depth not restored (replaying such
// a body would mutate the stack every round).
func (r *Recorder) Finish(endPC int) *Trace {
	if r.aborted || r.depth != 0 {
		return nil
	}
	r.t.EndPC = endPC
	r.t.seal()
	r.t.TouchOrder = make([]uint8, 0, len(r.last))
	for op := range r.last {
		r.t.TouchOrder = append(r.t.TouchOrder, op)
	}
	sort.Slice(r.t.TouchOrder, func(i, j int) bool {
		return r.last[r.t.TouchOrder[i]] < r.last[r.t.TouchOrder[j]]
	})
	return &r.t
}
