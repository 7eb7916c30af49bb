// Package machine executes MPU ISA binaries on a simulated chip: one or more
// MPUs in front of a PUM datapath back end, connected by an on-chip mesh.
// It is the Go equivalent of the paper's MASTODON simulator — functional
// execution happens on bit planes through the real micro-op recipes, while
// per-event costs (micro-op timing, decode stalls, scheduler rounds, NoC
// hops, host round trips) accumulate into Stats.
//
// Two modes mirror the paper's configurations: ModeMPU runs control flow in
// the MPU control path; ModeBaseline models the original datapaths, which
// must offload every data-driven control decision to the external host CPU.
package machine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/hostcpu"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/lint/comm"
	"mpu/internal/micro"
	"mpu/internal/noc"
	"mpu/internal/recipe"
	"mpu/internal/sweep"
	"mpu/internal/trace"
	"mpu/internal/vrf"
)

// Sentinel fault classes, matchable with errors.Is. They tag exactly the
// runtime guards the static linter (internal/lint) proves unreachable for
// programs with no Error findings — the lint-soundness fuzz oracle in
// internal/isa keys on them. Config-dependent failures (deadlock, runaway
// loops, return-stack overflow from deep recursion, SEND to an MPU that was
// not instantiated) are deliberately not tagged.
var (
	// ErrEnsembleFault: ensemble bracketing or context violations — an
	// instruction outside any ensemble, an illegal instruction inside a
	// compute/transfer/SEND block, a missing *_DONE footer, or a RETURN
	// popping an empty return-address stack.
	ErrEnsembleFault = errors.New("ensemble structure fault")
	// ErrCapacityFault: an RFH/VRF id beyond the back-end spec's geometry.
	ErrCapacityFault = errors.New("capacity fault")
)

// Mode selects who executes control flow.
type Mode int

// Execution modes.
const (
	// ModeMPU: the MPU control path executes everything on chip.
	ModeMPU Mode = iota
	// ModeBaseline: the original datapath; JUMP_COND, JUMP, RETURN and
	// SEND coordination are CPU round trips.
	ModeBaseline
)

func (m Mode) String() string {
	if m == ModeBaseline {
		return "Baseline"
	}
	return "MPU"
}

// Config assembles a machine.
type Config struct {
	Spec    *backends.Spec
	Mode    Mode
	NumMPUs int // instantiated MPUs (≤ Spec.MPUs); 0 means 1

	Host   *hostcpu.Model
	Recipe controlpath.RecipeCacheConfig

	// ActiveVRFsOverride, if positive, replaces the spec's thermal
	// activation limit (footnote 2's RACER 2-active-VRF study).
	ActiveVRFsOverride int

	// ComputeScale multiplies compute-cycle and datapath-energy charges;
	// experiments use it for the Baseline stencil Toeplitz inflation
	// (§VIII-B: ~4× application footprint). 0 means 1.
	ComputeScale float64

	// MaxSteps bounds instruction executions per scheduling round to catch
	// runaway loops. 0 means the default of 50M.
	MaxSteps int

	// Strict makes LoadProgram reject programs the static linter flags
	// with Error findings (checked against Spec), and Run escalate any
	// ensemble or capacity fault that slips through to a lint-soundness
	// violation — loaded programs proved clean must not trip those guards.
	Strict bool

	// Workers bounds the scheduler goroutines that execute cores
	// concurrently between communication points. 0 means one per CPU
	// (runtime.GOMAXPROCS), 1 forces the sequential scheduler; the count is
	// capped at NumMPUs either way. Statistics are byte-identical at any
	// worker count — callers nesting machines inside a sweep should divide
	// GOMAXPROCS between the two levels (see sweep.MachineWorkers).
	Workers int

	// NoTrace selects the reference interpreter: no round records or
	// replays, and every micro-op stream runs through the uncompiled per-op
	// executor instead of the compiled kernels (the escape hatch behind cmd
	// flags and the interpreter leg of the parity difftest). Recording and
	// replay are also off while Trace is set, so the execution log keeps its
	// per-instruction fidelity.
	NoTrace bool

	// Trace, when non-nil, receives a line per architectural event
	// (ensemble activation, scheduling round, control transfer, DTC and
	// inter-MPU traffic) — the MASTODON-style execution log.
	Trace io.Writer
}

// Stats aggregates the costs of one Run.
//
// The JSON form (see MarshalJSON in statsjson.go) is a stable wire contract
// shared by the mpud service responses, mpurun -json, and the experiment
// exports; the tags below give json.Unmarshal the matching field names.
type Stats struct {
	Cycles       int64   `json:"cycles"`         // makespan: max cycle count across MPUs
	PerMPUCycles []int64 `json:"per_mpu_cycles"` // per-MPU clocks

	Instructions  uint64 `json:"instructions"` // dynamic ISA instructions executed (per round)
	MicroOps      uint64 `json:"micro_ops"`    // micro-ops issued across all MPUs and rounds
	Rounds        uint64 `json:"rounds"`       // scheduler activation rounds (Fig. 10 replays)
	Ensembles     uint64 `json:"ensembles"`    // compute ensembles executed
	Transfers     uint64 `json:"transfers"`    // MEMCPY pair-copies performed
	Sends         uint64 `json:"sends"`        // inter-MPU send blocks completed
	Offloads      uint64 `json:"offloads"`     // Baseline CPU round trips
	RecipeHits    uint64 `json:"recipe_hits"`
	RecipeMisses  uint64 `json:"recipe_misses"`
	PlaybackSpill uint64 `json:"playback_spill"` // ensemble bodies exceeding the playback buffer

	// Trace-engine round accounting. Every scheduling round increments
	// exactly one of these while the engine is enabled: TraceHits replayed
	// from a compiled trace, TraceMisses interpreted under the recorder
	// that compiles one, TraceFallbacks interpreted because the body is
	// untraceable (dynamic control flow, playback spill, recording abort)
	// or the recipe cache could not guarantee all-hit decode. They describe
	// simulator execution strategy, not modeled hardware, and are excluded
	// from trace-on/off parity.
	TraceHits      uint64 `json:"trace_hits"`
	TraceMisses    uint64 `json:"trace_misses"`
	TraceFallbacks uint64 `json:"trace_fallbacks"`

	// Trace-JIT accounting, same simulator-strategy caveat as the trace
	// counters (excluded from parity): JITCompiles counts traces lowered
	// to closure chains (on their first replayed round), JITReplays the
	// replayed rounds, each of which runs a compiled chain (so it equals
	// TraceHits). Only the closure-compile path and the replay loop write
	// them; TestTraceParity and FuzzJITParity fail on a charge from anywhere
	// else (a fallback round that counts a replay breaks JITReplays ==
	// TraceHits).
	JITCompiles uint64 `json:"jit_compiles"`
	JITReplays  uint64 `json:"jit_replays"`

	ComputeCycles  int64 `json:"compute_cycles"`   // summed across MPUs
	TransferCycles int64 `json:"transfer_cycles"`  // on-chip DTC transfers
	InterMPUCycles int64 `json:"inter_mpu_cycles"` // NoC message passing
	OffloadCycles  int64 `json:"offload_cycles"`   // off-chip CPU interaction (Baseline)
	DecodeStalls   int64 `json:"decode_stalls"`    // recipe-table misses

	DatapathEnergyPJ  float64 `json:"datapath_energy_pj"`
	FrontendStaticPJ  float64 `json:"frontend_static_pj"`
	FrontendDynamicPJ float64 `json:"frontend_dynamic_pj"`
	NoCEnergyPJ       float64 `json:"noc_energy_pj"`
	HostEnergyPJ      float64 `json:"host_energy_pj"`
}

// TimeSeconds converts the makespan to seconds at the back-end clock.
func (s *Stats) TimeSeconds(clockGHz float64) float64 {
	return float64(s.Cycles) / (clockGHz * 1e9)
}

// TotalEnergyPJ sums every energy component.
func (s *Stats) TotalEnergyPJ() float64 {
	return s.DatapathEnergyPJ + s.FrontendStaticPJ + s.FrontendDynamicPJ +
		s.NoCEnergyPJ + s.HostEnergyPJ
}

// Machine is a configured chip ready to load and run binaries.
type Machine struct {
	cfg    Config
	mesh   *noc.Mesh
	nocCfg noc.Config
	mpus   []*core
	limit  int // effective active VRFs per RFH

	// expands memoizes decode per dynamic instruction: the recipe expansion
	// and, on every machine but the NoTrace reference interpreter, the
	// kernel compiled from it. A dynamic loop re-executes the same
	// instruction thousands of times across rounds and replays; re-running
	// the gate-level expander each time dominated simulation wall clock.
	// The cache is per machine (capability set and lane count are fixed at
	// construction), so concurrent sweep cells contend on nothing but the
	// process-wide memos behind it (recipe's expansions, kernels below). It
	// is the one piece of machine state cores touch from concurrent
	// scheduler goroutines, hence the mutex; entries are immutable once
	// published, so lookups hand out shared pointers.
	expandsMu sync.Mutex
	expands   map[isa.Instr]*expandEntry

	// jitMemo caches JIT-compiled closure chains by step-stream content,
	// under the same contract that lets expands survive Reset: a compiled
	// program is a pure function of the recorded steps and the lane
	// geometry, and charges nothing. A pooled machine that re-records a
	// body after Reset, or several cores recording the same SPMD body,
	// adopt one compilation instead of lowering per micro-op again.
	jitMemo *trace.ProgMemo

	// preempt is the cooperative-yield request flag (Preempt/ErrPreempted,
	// preempt.go). It is the only machine field a foreign goroutine writes
	// while Run executes, hence the atomic; cores poll it between
	// instructions and between ensemble rounds.
	preempt atomic.Bool
	// midRun records that the previous Run returned ErrPreempted: the next
	// Run resumes the paused program instead of starting a fresh account
	// (per-core local Stats are preserved, not zeroed). Cleared by Run,
	// Reset, Rewind, and Restore.
	midRun bool
}

// expandEntry is one decoded datapath instruction: its recipe expansion,
// the slot-resolved form of the same stream, and the kernel compiled from
// that form for the machine's lane count. Every round that is not a replay
// — dynamic bodies, recording rounds, recipe-cold and spill fallbacks —
// executes kern, the same kernel a replayed round runs; rops is what the
// recorder copies into a trace and what the NoTrace reference interpreter
// executes (its entries carry no kern).
type expandEntry struct {
	ops  []micro.Op
	rops []micro.ResolvedOp
	kern *vrf.CompiledExec
}

// kernelKey identifies a compiled expansion process-wide: the resolved
// stream recipe.ExpandResolved memoizes per (capability set, instruction) —
// one canonical slice, named by its first element — and the lane geometry
// the kernel is bound to.
type kernelKey struct {
	stream *micro.ResolvedOp
	lanes  int
}

// kernels memoizes expansion kernels across every machine in the process,
// living as long as the recipe.ExpandResolved entries they are compiled
// from. A server or a sweep builds hundreds of machines over the same back
// ends, and compiling a wide recipe costs as much as some twenty executions
// of it, so a kernel is built on first decode, once, and every later
// machine adopts the canonical pointer. Kernels are immutable, pure
// functions of the key and charge nothing, so sharing them perturbs no
// statistic and is not machine state (Reset and snapshots ignore it).
var kernels sync.Map // kernelKey -> *vrf.CompiledExec

// expansionKernel returns the process-wide kernel of a stream returned by
// recipe.ExpandResolved, compiling it on first use.
func expansionKernel(rops []micro.ResolvedOp, lanes int) *vrf.CompiledExec {
	k := kernelKey{lanes: lanes}
	if len(rops) > 0 {
		k.stream = &rops[0]
	}
	if c, ok := kernels.Load(k); ok {
		return c.(*vrf.CompiledExec)
	}
	c, _ := kernels.LoadOrStore(k, vrf.CompileResolved(rops, lanes))
	return c.(*vrf.CompiledExec)
}

// coreState is the part of one MPU's architectural state that is plain
// values: what a snapshot writes first for every core. It is declared once
// and embedded in both core and coreSnap, so Reset, Rewind and Restore each
// set it with one whole-value assignment and a field added here cannot be
// forgotten in one of the three. Everything else that writes a field of it is
// the run path itself (core.run, the ensemble rounds, the barrier-phase
// rendezvous), and what holds those writes to their meaning is the
// differential suite: TestTraceParity and FuzzJITParity (engine = reference
// interpreter), TestParallelMachine (any worker count), and
// TestSnapshotResumeParity* with TestSnapshotCompatFixtures (paused,
// snapshotted and resumed = uninterrupted, byte for byte).
type coreState struct {
	pc      int
	cycles  int64
	issue   int64 // cycles spent issuing micro-ops (front-end dynamic energy)
	done    bool
	blocked bool
	// Pending rendezvous: who this core waits on. The deadlock diagnostic and
	// the commlint soundness oracle read it as ground truth.
	sendDst  int
	recvSrc  int
	waitSend bool
	waitRecv bool
	// ens is the resumable mid-ensemble position after a preemption yield
	// (preempt.go).
	ens ensState
	// local accumulates this core's share of the run statistics. Between
	// communication points each core charges only its own local Stats, so
	// scheduler goroutines never contend; Run merges the locals in
	// ascending core-ID order (reduceStats) once every core has finished.
	// Rendezvous costs are charged to the *sender's* local during the
	// single-threaded barrier phase, which keeps every core's charge
	// sequence — including the order of float additions — independent of
	// the worker count.
	local Stats
}

// core is one MPU: precoder state, compute controller, DTC, and its VRFs.
type core struct {
	coreState
	id     int
	m      *Machine
	prog   isa.Program
	vrfs   map[controlpath.VRFAddr]*vrf.VRF
	ras    *controlpath.ReturnStack
	rcache *controlpath.RecipeCache
	pbuf   *controlpath.PlaybackBuffer
	// spare holds the register files Reset parked: storage for vrfAt to
	// recycle, never machine state (Snapshot does not see it). It is bounded
	// by Spec.VRFsPerMPU, the number of addresses checkAddr admits.
	spare []*vrf.VRF

	// decode caches the expansion entry per body pc (reset on program
	// load), replacing a struct-keyed map probe per interpreted datapath
	// instruction with an index load.
	decode []*expandEntry
	// traces holds the core's compiled ensemble bodies.
	traces *trace.Cache
	// hdr, act, and tm are per-core scratch reused across ensembles to keep
	// header scans, round activation, and DTC target maps allocation-free.
	// While ens.active, hdr doubles as live state: it holds the paused
	// ensemble's activation list until the rounds finish, and snapshots
	// serialize it alongside ens.
	hdr []controlpath.VRFAddr
	act []*vrf.VRF
	tm  controlpath.TargetMap

	// seg counts this Run call's completed execution units so a yield never
	// fires before the core has made progress; Run zeroes it on entry and no
	// snapshot carries it.
	seg int64
}

// New builds a machine. NumMPUs defaults to 1.
func New(cfg Config) (*Machine, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("machine: nil back-end spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumMPUs == 0 {
		cfg.NumMPUs = 1
	}
	if cfg.NumMPUs < 0 || cfg.NumMPUs > cfg.Spec.MPUs {
		return nil, fmt.Errorf("machine: %d MPUs outside [1,%d]", cfg.NumMPUs, cfg.Spec.MPUs)
	}
	if cfg.Host == nil {
		cfg.Host = hostcpu.Default()
	}
	if cfg.Recipe.CapacityMicroOps == 0 {
		cfg.Recipe = controlpath.DefaultRecipeCacheConfig()
	}
	if cfg.ComputeScale == 0 {
		cfg.ComputeScale = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 50_000_000
	}
	nc := noc.Default(cfg.NumMPUs)
	mesh, err := noc.New(nc)
	if err != nil {
		return nil, err
	}
	limit := cfg.Spec.ActiveVRFsPerRFH
	if cfg.ActiveVRFsOverride > 0 {
		limit = cfg.ActiveVRFsOverride
		if limit > cfg.Spec.VRFsPerRFH {
			limit = cfg.Spec.VRFsPerRFH
		}
	}
	m := &Machine{cfg: cfg, mesh: mesh, nocCfg: nc, limit: limit,
		expands: map[isa.Instr]*expandEntry{},
		jitMemo: trace.NewProgMemo()}
	for i := 0; i < cfg.NumMPUs; i++ {
		m.mpus = append(m.mpus, &core{
			coreState: coreState{done: true}, // no program yet
			id:        i,
			m:         m,
			vrfs:      map[controlpath.VRFAddr]*vrf.VRF{},
			ras:       controlpath.NewReturnStack(64),
			rcache:    controlpath.NewRecipeCache(cfg.Recipe),
			pbuf:      controlpath.NewPlaybackBuffer(),
			traces:    trace.NewCache(),
		})
	}
	return m, nil
}

// traceEnabled reports whether the compile-once/replay-many engine is on:
// it is the default, switched off by NoTrace and while an execution log is
// being written (the log must show every interpreted instruction).
func (m *Machine) traceEnabled() bool {
	return !m.cfg.NoTrace && m.cfg.Trace == nil
}

// Spec returns the back-end spec the machine was built with.
func (m *Machine) Spec() *backends.Spec { return m.cfg.Spec }

// Mode returns the configured execution mode.
func (m *Machine) Mode() Mode { return m.cfg.Mode }

// NumMPUs returns the instantiated MPU count.
func (m *Machine) NumMPUs() int { return len(m.mpus) }

// LoadProgram installs a binary into one MPU's instruction storage unit.
func (m *Machine) LoadProgram(mpu int, p isa.Program) error {
	if mpu < 0 || mpu >= len(m.mpus) {
		return fmt.Errorf("machine: MPU %d out of range [0,%d)", mpu, len(m.mpus))
	}
	if err := p.Validate(); err != nil {
		return err
	}
	const isuBytes = 2 << 20 // Table III: 2 MB instruction storage
	if p.BinarySize() > isuBytes {
		return fmt.Errorf("machine: binary of %d bytes exceeds the %d-byte ISU", p.BinarySize(), isuBytes)
	}
	if m.cfg.Strict {
		if err := lint.Lint(p, lint.Options{Spec: m.cfg.Spec}).Err(); err != nil {
			return fmt.Errorf("machine: strict mode rejected the program: %w", err)
		}
	}
	c := m.mpus[mpu]
	c.prog = p
	c.pc = 0
	c.done = len(p) == 0
	// A new binary invalidates everything keyed by pc.
	c.decode = make([]*expandEntry, len(p))
	c.traces.Reset()
	return nil
}

// LoadAll installs the same binary on every MPU (SPMD execution).
func (m *Machine) LoadAll(p isa.Program) error {
	for i := range m.mpus {
		if err := m.LoadProgram(i, p); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) checkAddr(a controlpath.VRFAddr) error {
	if int(a.RFH) >= m.cfg.Spec.RFHsPerMPU {
		return fmt.Errorf("machine: rfh%d out of range [0,%d) (%w)", a.RFH, m.cfg.Spec.RFHsPerMPU, ErrCapacityFault)
	}
	if int(a.VRF) >= m.cfg.Spec.VRFsPerRFH {
		return fmt.Errorf("machine: vrf%d out of range [0,%d) (%w)", a.VRF, m.cfg.Spec.VRFsPerRFH, ErrCapacityFault)
	}
	return nil
}

// vrfAt returns the register file at a, mapping one on first touch: a
// parked one recycled to the state vrf.New leaves, else a new one.
func (c *core) vrfAt(a controlpath.VRFAddr) *vrf.VRF {
	v, ok := c.vrfs[a]
	if !ok {
		if n := len(c.spare); n > 0 {
			v, c.spare = c.spare[n-1], c.spare[:n-1]
			v.Recycle()
		} else {
			v = vrf.New(c.m.cfg.Spec.Lanes)
		}
		c.vrfs[a] = v
	}
	return v
}

// WriteVector loads host data into a vector register (outside kernel time).
func (m *Machine) WriteVector(mpu int, a controlpath.VRFAddr, reg int, vals []uint64) error {
	if mpu < 0 || mpu >= len(m.mpus) {
		return fmt.Errorf("machine: MPU %d out of range", mpu)
	}
	if err := m.checkAddr(a); err != nil {
		return err
	}
	if reg < 0 || reg >= isa.NumRegs {
		return fmt.Errorf("machine: register %d out of range", reg)
	}
	m.mpus[mpu].vrfAt(a).WriteReg(reg, vals)
	return nil
}

// ReadVector reads a vector register back to the host.
func (m *Machine) ReadVector(mpu int, a controlpath.VRFAddr, reg int) ([]uint64, error) {
	if mpu < 0 || mpu >= len(m.mpus) {
		return nil, fmt.Errorf("machine: MPU %d out of range", mpu)
	}
	if err := m.checkAddr(a); err != nil {
		return nil, err
	}
	if reg < 0 || reg >= isa.NumRegs {
		return nil, fmt.Errorf("machine: register %d out of range", reg)
	}
	return m.mpus[mpu].vrfAt(a).ReadReg(reg), nil
}

// Run executes all loaded programs to completion and returns the statistics.
// MPUs run concurrently in simulated time, synchronizing at SEND/RECV
// rendezvous points. The returned Stats is the caller's: the machine holds no
// reference to it and no later Run, Reset or Restore writes it again
// (TestRunStatsNotAliased).
//
// The scheduler is phase-based: in the run phase every runnable core
// executes until it finishes or blocks on a rendezvous — cores are
// independent between communication points, so with Config.Workers > 1 the
// run phase fans them out across a bounded goroutine pool; in the barrier
// phase (always single-threaded) pending SEND/RECV pairs are matched and
// completed in ascending sender-ID order. Each core's execution — and thus
// its charge sequence into its local Stats — depends only on its own
// program and the deterministic barrier sequence, so the reduced statistics
// are byte-identical at any worker count.
func (m *Machine) Run() (*Stats, error) {
	workers := m.schedWorkers()
	if !m.midRun {
		for _, c := range m.mpus {
			c.local = Stats{}
		}
	}
	m.midRun = false
	for _, c := range m.mpus {
		c.seg = 0
	}
	runnable := make([]*core, 0, len(m.mpus))
	for {
		runnable = runnable[:0]
		allDone := true
		for _, c := range m.mpus {
			if c.done {
				continue
			}
			allDone = false
			if !c.blocked {
				runnable = append(runnable, c)
			}
		}
		if allDone {
			break
		}
		progress := len(runnable) > 0
		// Run phase. On error both schedules surface the diagnostic of the
		// lowest-ID failing core: runnable is in ID order, and sweep.Each
		// reports the lowest failing index.
		if workers <= 1 || len(runnable) == 1 {
			for _, c := range runnable {
				if err := c.run(); err != nil {
					return nil, m.faultf(fmt.Errorf("mpu%d: %w", c.id, err))
				}
			}
		} else if err := sweep.Each(workers, len(runnable), func(i int) error {
			if err := runnable[i].run(); err != nil {
				return fmt.Errorf("mpu%d: %w", runnable[i].id, err)
			}
			return nil
		}); err != nil {
			return nil, m.faultf(err)
		}
		// Barrier phase: match pending rendezvous. A blocked sender names
		// its destination, so the only core that can complete it is
		// mpus[s.sendDst] (validated when SEND executed) — an O(n) scan
		// over senders instead of an O(n²) sender×receiver product.
		for _, s := range m.mpus {
			if !s.blocked || !s.waitSend {
				continue
			}
			r := m.mpus[s.sendDst]
			if r.blocked && r.waitRecv && r.recvSrc == s.id {
				if err := m.rendezvous(s, r); err != nil {
					return nil, m.faultf(err)
				}
				progress = true
			}
		}
		// Honor a pending preemption request after the barrier phase: every
		// runnable core has reached a consistent pause point (yielded at an
		// ensemble boundary, finished, or blocked on rendezvous). The check
		// precedes the deadlock test so a pause request on a stuck machine
		// defers the diagnosis to the resuming Run rather than masking it.
		if m.preempt.Load() {
			stillRunning := false
			for _, c := range m.mpus {
				if !c.done {
					stillRunning = true
					break
				}
			}
			if stillRunning {
				m.preempt.Store(false)
				m.midRun = true
				return nil, ErrPreempted
			}
		}
		if !progress {
			return nil, fmt.Errorf("machine: deadlock — no MPU can make progress (check SEND/RECV pairing and the lower-ID-sends-first rule)\n%s",
				comm.FormatWaiters(m.waiters()))
		}
	}
	// A request that raced the run's completion is consumed, not carried
	// into the next Run.
	m.preempt.Store(false)
	return m.reduceStats(), nil
}

// waiters snapshots every blocked core's pending rendezvous for the deadlock
// diagnostic: who waits on whom, at which pc. Built in ascending core order
// from the single-threaded barrier phase, so the list is identical at any
// worker count.
func (m *Machine) waiters() []comm.Waiter {
	var ws []comm.Waiter
	for _, c := range m.mpus {
		if !c.blocked {
			continue
		}
		switch {
		case c.waitSend:
			ws = append(ws, comm.Waiter{Core: c.id, Op: "SEND", Partner: c.sendDst, PC: c.pc})
		case c.waitRecv:
			ws = append(ws, comm.Waiter{Core: c.id, Op: "RECV", Partner: c.recvSrc, PC: c.pc})
		}
	}
	return ws
}

// SetWorkers sets Config.Workers for the Runs that follow. Statistics do not
// depend on it, so a machine may change schedule between runs; it must not
// be called while Run executes.
func (m *Machine) SetWorkers(n int) { m.cfg.Workers = n }

// schedWorkers resolves the effective run-phase worker count: an explicit
// Config.Workers wins, 0 means one per CPU, and the result is capped at the
// core count. A machine writing an execution log always runs sequentially so
// the log lines keep their deterministic interleaving.
func (m *Machine) schedWorkers() int {
	w := m.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(m.mpus) {
		w = len(m.mpus)
	}
	if m.cfg.Trace != nil {
		w = 1
	}
	return w
}

// reduceStats merges the per-core statistics, in ascending core-ID order,
// into a new Stats the caller of Run owns; the machine keeps no totals. The
// fixed reduction order makes the float energy sums bit-for-bit reproducible
// across worker counts (TestParallelMachine), the same discipline runBody's
// round-local accumulation applies within a core.
func (m *Machine) reduceStats() *Stats {
	st := &Stats{}
	for _, c := range m.mpus {
		l := &c.local
		st.PerMPUCycles = append(st.PerMPUCycles, c.cycles)
		if c.cycles > st.Cycles {
			st.Cycles = c.cycles
		}
		st.Instructions += l.Instructions
		st.MicroOps += l.MicroOps
		st.Rounds += l.Rounds
		st.Ensembles += l.Ensembles
		st.Transfers += l.Transfers
		st.Sends += l.Sends
		st.Offloads += l.Offloads
		st.RecipeHits += c.rcache.Hits
		st.RecipeMisses += c.rcache.Misses
		st.PlaybackSpill += c.pbuf.Overflows
		st.TraceHits += l.TraceHits
		st.TraceMisses += l.TraceMisses
		st.TraceFallbacks += l.TraceFallbacks
		st.JITCompiles += l.JITCompiles
		st.JITReplays += l.JITReplays
		st.ComputeCycles += l.ComputeCycles
		st.TransferCycles += l.TransferCycles
		st.InterMPUCycles += l.InterMPUCycles
		st.OffloadCycles += l.OffloadCycles
		st.DecodeStalls += c.rcache.StallCycles
		st.DatapathEnergyPJ += l.DatapathEnergyPJ
		st.NoCEnergyPJ += l.NoCEnergyPJ
		st.HostEnergyPJ += l.HostEnergyPJ
		st.FrontendDynamicPJ += float64(c.issue) * frontendDynamicPJPerCycle
	}
	if m.cfg.Mode == ModeMPU {
		st.FrontendStaticPJ = float64(len(m.mpus)) * frontendStaticPJPerCycle * float64(st.Cycles)
	} else {
		// Baseline: the host is live for the whole run, and the original
		// datapaths' less efficient micro-op expansion dissipates extra
		// decode/control energy (§VIII-B's "even if we ignore CPU energy
		// savings" component).
		st.HostEnergyPJ += m.cfg.Host.IdleEnergyPJ(st.Cycles, m.cfg.Spec.OnChipCPU)
		if f := m.cfg.Spec.BaselineEnergyFactor; f > 0 {
			st.DatapathEnergyPJ *= f
		}
		st.FrontendDynamicPJ = 0 // no MPU front end exists
	}
	return st
}

// faultf escalates tagged faults under strict mode: a strict machine only
// loads lint-clean programs, so an ensemble or capacity fault at run time
// means the static analysis missed a path — surface it as such.
func (m *Machine) faultf(err error) error {
	if m.cfg.Strict && (errors.Is(err, ErrEnsembleFault) || errors.Is(err, ErrCapacityFault)) {
		return fmt.Errorf("machine: lint soundness violation — lint-clean program tripped a runtime guard: %w", err)
	}
	return err
}

// Front-end energy constants (see internal/frontend; duplicated here to keep
// the dependency graph acyclic: frontend imports nothing, but machine only
// needs the two scalars). Both are per-cycle energies at the 1 GHz clock:
// 1 mW × 1 ns = 1 pJ, so frontend.StaticPowerMW (1.22 mW) charges 1.22 pJ
// per cycle per MPU and frontend.DynamicPowerMW (71.72 mW) charges 71.72 pJ
// per active issue cycle. TestFrontendEnergyUnits pins the equivalence
// against internal/frontend's reported totals.
const (
	frontendStaticPJPerCycle  = 1.22  // pJ per cycle per MPU (1.22 mW at 1 GHz)
	frontendDynamicPJPerCycle = 71.72 // pJ per active issue cycle (71.72 mW at 1 GHz)
)

// expand returns the decoded recipe for in — the micro-op expansion, its
// slot-resolved form and the kernel compiled from it — memoized for the
// machine's capability set and lane count. The returned entry is shared and
// must not be mutated. Cores call this from concurrent scheduler goroutines,
// so the memo is mutex-guarded; when two cores race to expand the same
// instruction the first published entry wins, keeping one canonical pointer
// per instruction.
func (m *Machine) expand(in isa.Instr) (*expandEntry, error) {
	m.expandsMu.Lock()
	e, ok := m.expands[in]
	m.expandsMu.Unlock()
	if ok {
		return e, nil
	}
	ops, rops, err := recipe.ExpandResolved(m.cfg.Spec.Caps, in)
	if err != nil {
		return nil, err
	}
	e = &expandEntry{ops: ops, rops: rops}
	if !m.cfg.NoTrace {
		e.kern = expansionKernel(rops, m.cfg.Spec.Lanes)
	}
	m.expandsMu.Lock()
	if prev, ok := m.expands[in]; ok {
		e = prev
	} else {
		m.expands[in] = e
	}
	m.expandsMu.Unlock()
	return e, nil
}

// decodeAt resolves the expansion entry for the datapath instruction at pc
// through the per-core pc-indexed cache.
func (c *core) decodeAt(pc int) (*expandEntry, error) {
	if e := c.decode[pc]; e != nil {
		return e, nil
	}
	e, err := c.m.expand(c.prog[pc])
	if err != nil {
		return nil, err
	}
	c.decode[pc] = e
	return e, nil
}

// run executes instructions until the MPU finishes, blocks on rendezvous,
// or yields to a pending preemption request at an ensemble boundary (a
// yield leaves done and blocked false; Run surfaces it as ErrPreempted
// after the barrier phase).
func (c *core) run() error {
	for !c.done && !c.blocked {
		if c.ens.active {
			// Resuming a preempted ensemble: finish its remaining rounds
			// before decoding anything new.
			if c.shouldYield() {
				return nil
			}
			if err := c.runEnsembleRounds(); err != nil {
				return err
			}
			continue
		}
		if c.shouldYield() {
			return nil
		}
		if c.pc < 0 || c.pc >= len(c.prog) {
			c.done = true
			return nil
		}
		in := c.prog[c.pc]
		c.seg++
		switch in.Op {
		case isa.NOP:
			c.cycles++
			c.pc++
		case isa.MPUSYNC:
			// With one compute controller (Table III) ensembles already
			// serialize; the fence costs a pipeline drain.
			c.cycles += 2
			c.pc++
		case isa.COMPUTE:
			if err := c.runComputeEnsemble(); err != nil {
				return err
			}
		case isa.MOVE:
			if err := c.runTransferEnsemble(); err != nil {
				return err
			}
		case isa.SEND:
			// Validate, then mutate: a failed Run must leave state Snapshot
			// can emit and Restore accepts (TestSnapshotAfterFailedRun).
			dst := int(in.Imm)
			if dst < 0 || dst >= len(c.m.mpus) {
				return fmt.Errorf("SEND to unknown mpu%d", dst)
			}
			c.sendDst, c.waitSend, c.blocked = dst, true, true
		case isa.RECV:
			src := int(in.Imm)
			if src < 0 || src >= len(c.m.mpus) {
				return fmt.Errorf("RECV from unknown mpu%d", src)
			}
			c.recvSrc, c.waitRecv, c.blocked = src, true, true
		case isa.JUMP:
			c.chargeControlRedirect()
			if err := c.ras.Push(c.pc + 1); err != nil {
				return err
			}
			c.pc = int(in.Imm)
		case isa.RETURN:
			c.chargeControlRedirect()
			pc, err := c.ras.Pop()
			if err != nil {
				// Underflow: a RETURN with no pending JUMP frame — a
				// structural bug the linter flags as return-unbalanced.
				return fmt.Errorf("%v (%w)", err, ErrEnsembleFault)
			}
			c.pc = pc
		default:
			return fmt.Errorf("instruction %s at %d outside any ensemble (%w)", in.Op, c.pc, ErrEnsembleFault)
		}
	}
	return nil
}

// tracef logs one architectural event when tracing is enabled.
func (c *core) tracef(format string, args ...any) {
	if c.m.cfg.Trace != nil {
		fmt.Fprintf(c.m.cfg.Trace, "mpu%d: "+format+"\n", append([]any{c.id}, args...)...)
	}
}

// chargeControlRedirect accounts for a JUMP/RETURN: one cycle on the MPU,
// a full host round trip for Baseline datapaths, which cannot redirect
// their own instruction stream (Table I: subroutine calls).
func (c *core) chargeControlRedirect() {
	c.cycles++
	if c.m.cfg.Mode == ModeBaseline {
		c.offload()
	}
}

// offload charges one host CPU round trip (Baseline control decision).
func (c *core) offload() {
	c.tracef("host offload (control decision)")
	lat := c.m.cfg.Host.OffloadCycles(c.m.cfg.Spec.Lanes, c.m.cfg.Spec.OnChipCPU)
	c.cycles += lat
	c.local.OffloadCycles += lat
	c.local.Offloads++
	c.local.HostEnergyPJ += c.m.cfg.Host.OffloadEnergyPJ(c.m.cfg.Spec.Lanes)
}

// offloadBody charges one host round trip inside an ensemble body. Unlike
// offload, the energy accumulates into the caller's round-local sum so a
// replayed round reproduces the identical float addition order.
func (c *core) offloadBody(hostPJ *float64) (lat int64, pj float64) {
	c.tracef("host offload (control decision)")
	lat = c.m.cfg.Host.OffloadCycles(c.m.cfg.Spec.Lanes, c.m.cfg.Spec.OnChipCPU)
	c.cycles += lat
	c.local.OffloadCycles += lat
	c.local.Offloads++
	pj = c.m.cfg.Host.OffloadEnergyPJ(c.m.cfg.Spec.Lanes)
	*hostPJ += pj
	return lat, pj
}

// runComputeEnsemble executes one COMPUTE…COMPUTE_DONE block under the
// Fig. 10 scheduler: VRFs are activated in rounds bounded by the thermal
// limit, and the body (including its dynamic loops and subroutine calls)
// replays once per round.
//
// When the trace engine is on, the first execution of a body the lint CFG
// proves free of data-dependent branches runs under a recorder that compiles
// it into a flat trace; later rounds replay the trace — data-mutating plane
// ops plus one aggregated charge — instead of re-interpreting instruction by
// instruction.
//
// The entry charges (header walk, playback-buffer probe, ensemble count)
// happen exactly once here; the rounds themselves run in runEnsembleRounds
// (preempt.go), which can yield between rounds and resume without repeating
// them.
func (c *core) runComputeEnsemble() error {
	c.hdr = c.hdr[:0]
	for c.pc < len(c.prog) && c.prog[c.pc].Op == isa.COMPUTE {
		in := c.prog[c.pc]
		a := controlpath.VRFAddr{RFH: in.A, VRF: in.B}
		if err := c.m.checkAddr(a); err != nil {
			return err
		}
		c.hdr = append(c.hdr, a)
		c.cycles++ // activation-board write
		c.pc++
	}
	if len(c.hdr) == 0 {
		return fmt.Errorf("compute ensemble with empty header at %d (%w)", c.pc, ErrEnsembleFault)
	}
	bodyStart := c.pc
	bodyLen, err := c.findComputeDone(bodyStart)
	if err != nil {
		return err
	}
	fits := c.pbuf.Fits(bodyLen)
	if !fits {
		// Body exceeds the playback buffer: every replay refetches from the
		// ISU at one cycle per instruction.
		c.cycles += int64(bodyLen)
	}
	c.local.Ensembles++
	c.ens = ensState{active: true, bodyStart: bodyStart, bodyLen: bodyLen, fits: fits, endPC: bodyStart}
	return c.runEnsembleRounds()
}

// replayable reports whether a compiled body can replay this round: Baseline
// mode performs no recipe decode inside bodies, while ModeMPU additionally
// requires every decode the body performs to hit the resident recipe table —
// otherwise the trace's cycle delta (recorded stall-free) would hide real
// miss stalls and evictions.
func (c *core) replayable(t *trace.Trace) bool {
	return c.m.cfg.Mode == ModeBaseline || c.rcache.ReplayAllHit(t.Lookups)
}

// compileJIT lowers an installed trace to its closure chain, called lazily
// from replayRound on the body's first replayed round — bodies that never
// replay (recipe-cold decode every round) are never lowered. The
// machine-wide jitMemo dedupes the lowering by step-stream content, so a
// Reset-recycled pool machine or a sibling SPMD core adopts the existing
// chain; JITCompiles still counts every trace lowered (memo hits included)
// so warm-pool stats stay byte-identical to a fresh machine's
// (TestResetReuseMatchesFresh).
func (c *core) compileJIT(tr *trace.Trace) {
	tr.Prog = c.m.jitMemo.Compile(tr, c.m.cfg.Spec.Lanes)
	if tr.Prog == nil {
		panic("machine: recorded trace holds a step or micro-op kind the replay engine does not know")
	}
	c.local.JITCompiles++
}

// replayRound applies a compiled body to one round's activated VRFs: the
// data-mutating steps run micro-op-major over groups of the batch
// (trace.Prog.Run), and every cost counter advances by the precomputed delta
// — O(1) accounting regardless of dynamic body length.
func (c *core) replayRound(t *trace.Trace, batch []*vrf.VRF) {
	st := &c.local
	if t.Prog == nil {
		c.compileJIT(t)
	}
	if c.m.cfg.Mode == ModeMPU {
		// All-hit decode (checked by replayable): charge the hits and touch
		// the LRU in last-occurrence order, leaving the recipe cache in the
		// exact state an interpreted round would.
		c.rcache.ChargeReplayHits(t.NumLookups, t.TouchOrder)
	} else {
		st.Offloads += t.Offloads
		st.OffloadCycles += t.OffloadCycles
		st.HostEnergyPJ += t.HostEnergyPJ
	}
	c.cycles += t.Cycles
	c.issue += t.Issue
	st.Instructions += t.Instructions
	st.ComputeCycles += t.ComputeCycles
	st.MicroOps += t.MicroOpsPerVRF * uint64(len(batch))
	st.DatapathEnergyPJ += t.EnergyPerVRF * float64(len(batch))
	// The closure chain mutates the same words in the same order under the
	// same mask as an interpreted round, on each VRF of the batch (pinned by
	// TestTraceParity and FuzzJITParity).
	st.JITReplays++
	t.Prog.Run(batch)
}

// findComputeDone returns the linear distance from start to the matching
// COMPUTE_DONE (playback-buffer sizing). Jump targets may lie outside; only
// the straight-line footprint occupies the buffer.
func (c *core) findComputeDone(start int) (int, error) {
	for i := start; i < len(c.prog); i++ {
		switch c.prog[i].Op {
		case isa.COMPUTEDONE:
			return i - start + 1, nil
		case isa.COMPUTE, isa.MOVE, isa.SEND, isa.RECV:
			return 0, fmt.Errorf("instruction %s at %d inside a compute ensemble (%w)", c.prog[i].Op, i, ErrEnsembleFault)
		}
	}
	return 0, fmt.Errorf("compute ensemble at %d missing COMPUTE_DONE (%w)", start, ErrEnsembleFault)
}

// runBody interprets one replay of an ensemble body on the active batch,
// returning the pc just past COMPUTE_DONE. A non-nil rec compiles the round
// into a trace as a side effect (nil records nothing).
//
// The two float-valued charges — datapath and host energy — accumulate into
// round-local sums flushed once at COMPUTE_DONE. Float addition is not
// associative, so charging them per instruction would make the O(1) replay
// path (one addition per round) drift from the interpreter in the last ulps;
// summing per round first makes both paths add bit-identical values.
func (c *core) runBody(start int, batch []*vrf.VRF, rec *trace.Recorder) (int, error) {
	spec := c.m.cfg.Spec
	// NoTrace is the reference interpreter: the parity oracles compare the
	// kernels every other configuration executes against it.
	noTrace := c.m.cfg.NoTrace
	st := &c.local
	pc := start
	steps := 0
	var bodyPJ, hostPJ float64
	for {
		if pc < 0 || pc >= len(c.prog) {
			return 0, fmt.Errorf("ensemble body ran past the program end (pc=%d) (%w)", pc, ErrEnsembleFault)
		}
		steps++
		if steps > c.m.cfg.MaxSteps {
			return 0, fmt.Errorf("ensemble body exceeded %d steps — runaway loop?", c.m.cfg.MaxSteps)
		}
		in := c.prog[pc]
		st.Instructions++
		rec.Instr()
		switch {
		case in.Op == isa.COMPUTEDONE:
			st.DatapathEnergyPJ += bodyPJ * float64(len(batch))
			st.HostEnergyPJ += hostPJ
			return pc + 1, nil

		case recipe.IsDatapathOp(in.Op):
			e, err := c.decodeAt(pc)
			if err != nil {
				return 0, err
			}
			if c.m.cfg.Mode == ModeMPU {
				rec.Lookup(uint8(in.Op), len(e.ops))
				c.cycles += c.rcache.Lookup(uint8(in.Op), len(e.ops))
			}
			if noTrace {
				for _, v := range batch {
					v.ExecAllResolved(e.rops)
				}
			} else {
				vrf.RunCompiledGroups(e.kern, batch)
			}
			n := int64(len(e.ops))
			exec := int64(float64(n*int64(spec.CyclesPerMicroOp)) * c.m.cfg.ComputeScale)
			c.cycles += exec
			c.issue += n
			st.ComputeCycles += exec
			st.MicroOps += uint64(n) * uint64(len(batch))
			perVRF := float64(n) * spec.MicroOpEnergyPJ * c.m.cfg.ComputeScale
			bodyPJ += perVRF
			rec.Exec(e.rops, exec, perVRF)
			pc++

		case in.Op == isa.SETMASK:
			for _, v := range batch {
				if in.A == isa.RegCond {
					v.SetMaskFromCond()
				} else {
					v.SetMaskFromReg(int(in.A))
				}
			}
			c.cycles++
			if in.A == isa.RegCond {
				rec.Mask(trace.StepSetMaskCond, 0)
			} else {
				rec.Mask(trace.StepSetMaskReg, in.A)
			}
			rec.Cycles(1)
			pc++
		case in.Op == isa.UNMASK:
			for _, v := range batch {
				v.Unmask()
			}
			c.cycles++
			rec.Mask(trace.StepUnmask, 0)
			rec.Cycles(1)
			pc++
		case in.Op == isa.GETMASK:
			for _, v := range batch {
				v.GetMaskInto(int(in.C))
			}
			c.cycles++
			rec.Mask(trace.StepGetMask, in.C)
			rec.Cycles(1)
			pc++

		case in.Op == isa.JUMPCOND:
			// EFI (§VI-B): read mask registers of the active VRFs; jump
			// while any lane anywhere in the batch remains enabled. The
			// decision depends on lane data, so the round is unrecordable.
			rec.Abort()
			any := false
			for _, v := range batch {
				if v.MaskAny() {
					any = true
					break
				}
			}
			c.cycles += 4 // mask readback into the CC + decision
			if c.m.cfg.Mode == ModeBaseline {
				c.offloadBody(&hostPJ) // the original datapath asks the CPU instead
			}
			if any {
				pc = int(in.Imm)
			} else {
				pc++
			}

		case in.Op == isa.JUMP:
			c.cycles++
			rec.Cycles(1)
			if c.m.cfg.Mode == ModeBaseline {
				lat, pj := c.offloadBody(&hostPJ)
				rec.Offload(lat, pj)
			}
			if err := c.ras.Push(pc + 1); err != nil {
				return 0, err
			}
			rec.Push()
			pc = int(in.Imm)
		case in.Op == isa.RETURN:
			c.cycles++
			rec.Cycles(1)
			if c.m.cfg.Mode == ModeBaseline {
				lat, pj := c.offloadBody(&hostPJ)
				rec.Offload(lat, pj)
			}
			rpc, err := c.ras.Pop()
			if err != nil {
				return 0, fmt.Errorf("%v (%w)", err, ErrEnsembleFault)
			}
			rec.Pop()
			pc = rpc
		case in.Op == isa.NOP:
			c.cycles++
			rec.Cycles(1)
			pc++
		default:
			return 0, fmt.Errorf("instruction %s at %d not executable inside a compute ensemble (%w)", in.Op, pc, ErrEnsembleFault)
		}
	}
}

// runTransferEnsemble executes a local MOVE…MOVE_DONE block on the DTC.
func (c *core) runTransferEnsemble() error {
	c.tm.Reset()
	for c.pc < len(c.prog) && c.prog[c.pc].Op == isa.MOVE {
		in := c.prog[c.pc]
		c.tm.Add(in.A, in.B)
		c.cycles++ // target-map write
		c.pc++
	}
	pairs := c.tm.Pairs()
	if len(pairs) == 0 {
		return fmt.Errorf("transfer ensemble with empty header at %d (%w)", c.pc, ErrEnsembleFault)
	}
	c.tracef("transfer ensemble: %d RFH pairs", len(pairs))
	for {
		if c.pc >= len(c.prog) {
			return fmt.Errorf("transfer ensemble missing MOVE_DONE (%w)", ErrEnsembleFault)
		}
		in := c.prog[c.pc]
		switch in.Op {
		case isa.MOVEDONE:
			c.cycles++
			c.pc++
			return nil
		case isa.MEMCPY:
			if err := c.memcpyLocal(pairs, in); err != nil {
				return err
			}
			c.pc++
		case isa.NOP:
			c.cycles++
			c.pc++
		default:
			return fmt.Errorf("instruction %s at %d inside a transfer ensemble (%w)", in.Op, c.pc, ErrEnsembleFault)
		}
	}
}

// memcpyLocal copies one register per RFH pair through the DTC. Pairs use
// disjoint RFH links, so they stream in parallel; the cost is one setup plus
// the register's lane words.
func (c *core) memcpyLocal(pairs []controlpath.RFHPair, in isa.Instr) error {
	spec := c.m.cfg.Spec
	for _, p := range pairs {
		src := controlpath.VRFAddr{RFH: p.Src, VRF: in.A}
		dst := controlpath.VRFAddr{RFH: p.Dst, VRF: in.C}
		if err := c.m.checkAddr(src); err != nil {
			return err
		}
		if err := c.m.checkAddr(dst); err != nil {
			return err
		}
		vrf.CopyRegister(c.vrfAt(src), int(in.B), c.vrfAt(dst), int(in.D))
		c.local.Transfers++
	}
	cyc := int64(16 + spec.Lanes) // setup + one 64-bit word per lane
	c.cycles += cyc
	c.local.TransferCycles += cyc
	c.local.NoCEnergyPJ += c.m.mesh.DTCEnergyPJ(len(pairs) * spec.Lanes * 8)
	return nil
}

// rendezvous completes a matched SEND/RECV pair: the sender's block
// (SEND … MOVE/MEMCPY … MOVE_DONE … SEND_DONE) executes with source VRFs on
// the sender and destination VRFs on the receiver, costed through the mesh.
// It only runs in the single-threaded barrier phase; its costs are charged
// to the sender's local Stats, so the charge sequence every core observes is
// independent of the scheduler's worker count.
func (m *Machine) rendezvous(s, r *core) error {
	st := &s.local
	t0 := s.cycles
	if r.cycles > t0 {
		t0 = r.cycles
	}
	var block int64
	if m.cfg.Mode == ModeBaseline {
		// The host coordinates the pairing before any data moves.
		lat := m.cfg.Host.OffloadCycles(m.cfg.Spec.Lanes, m.cfg.Spec.OnChipCPU)
		block += lat
		st.OffloadCycles += lat
		st.Offloads++
		st.HostEnergyPJ += m.cfg.Host.OffloadEnergyPJ(m.cfg.Spec.Lanes)
	}

	pc := s.pc + 1 // past SEND
	s.tm.Reset()
	for pc < len(s.prog) && s.prog[pc].Op == isa.MOVE {
		s.tm.Add(s.prog[pc].A, s.prog[pc].B)
		block++
		pc++
	}
	pairs := s.tm.Pairs()
	if len(pairs) == 0 {
		return fmt.Errorf("mpu%d: SEND block without MOVE header at %d (%w)", s.id, pc, ErrEnsembleFault)
	}
loop:
	for {
		if pc >= len(s.prog) {
			return fmt.Errorf("mpu%d: SEND block missing SEND_DONE (%w)", s.id, ErrEnsembleFault)
		}
		in := s.prog[pc]
		switch in.Op {
		case isa.MEMCPY:
			for _, p := range pairs {
				src := controlpath.VRFAddr{RFH: p.Src, VRF: in.A}
				dst := controlpath.VRFAddr{RFH: p.Dst, VRF: in.C}
				if err := m.checkAddr(src); err != nil {
					return err
				}
				if err := m.checkAddr(dst); err != nil {
					return err
				}
				vrf.CopyRegister(s.vrfAt(src), int(in.B), r.vrfAt(dst), int(in.D))
				st.Transfers++
			}
			cyc, pj, err := m.mesh.TransferCost(s.id, r.id, m.cfg.Spec.Lanes)
			if err != nil {
				return err
			}
			block += int64(cyc)
			st.InterMPUCycles += int64(cyc)
			st.NoCEnergyPJ += pj * float64(len(pairs))
			pc++
		case isa.MOVEDONE, isa.NOP:
			block++
			pc++
		case isa.SENDDONE:
			pc++
			break loop
		default:
			return fmt.Errorf("mpu%d: instruction %s at %d inside a SEND block (%w)", s.id, in.Op, pc, ErrEnsembleFault)
		}
	}
	s.tracef("send block to mpu%d complete (%d pairs)", r.id, len(pairs))
	st.Sends++
	s.pc = pc
	r.pc++ // past RECV
	s.cycles = t0 + block
	r.cycles = t0 + block
	s.blocked, s.waitSend = false, false
	r.blocked, r.waitRecv = false, false
	return nil
}
