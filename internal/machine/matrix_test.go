package machine_test

// The differential matrix: the control path issues a body one instruction
// at a time and the machine is deterministic (§VI-B), so every host-side
// engine arm must leave exactly the state of the reference interpreter. A
// cell is a program (a shipped kernel, an app or a rendezvous pair) on one
// back end, in one mode and shape; the reference table holds its
// uninterrupted Workers 1 runs, each built once per test binary. Each row is
// one arm, compared with its cell's references; the notrace and restore rows
// run as TestTraceParity, TestTraceParityApps, TestSnapshotResumeParity and
// TestSnapshotResumeParityRendezvous, the others as TestMachineMatrix's
// subtests:
//
//   - notrace: the engine against NoTrace, engine counters stripped;
//   - workers2: Workers 2, chunk floor 1;
//   - workers4: Workers 4 on the 4-MPU cells and the apps;
//   - decode-flush: a decode table that empties itself on every insert;
//   - resume: paused at every instruction and resumed in place;
//   - restore: paused at every instruction, snapshotted and restored into a
//     fresh machine, workers rotating 4/1/2, each snapshot round-tripped;
//   - reset: a machine reused after Reset.
//
// A run leaves its Stats JSON, every register of every VRF its program
// activates, its whole-state snapshot and, on a logging machine, its
// execution log; an app leaves its Stats.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

const (
	matrixVRFs = 16 // two rounds of 8 at one active VRF per RFH: one recorded, one replayed
	spmdMPUs   = 4
	spmdVRFs   = 2
)

var (
	// smallVRFs make the second round smaller than two RACER groups: every
	// back end has eight RFHs, so 8+n VRFs form a round of 8, which records,
	// then one of n, which replays (both interpret a dynamic body).
	smallVRFs = []int{8 + 3, 8 + 5, 8 + 7}
	// smallKernels run at smallVRFs: straight-line bodies whose small round
	// replays — MUL-heavy, masked by a branch, a stencil — and dynamic ones,
	// gcd's divisions being sim-dynamic's.
	smallKernels = []string{"vecmul", "relu", "conv2d3x3", "gcd", "ibert-sqrt"}
	// dynamicKernels loop on data (JUMP_COND), so every round is
	// interpreted and a pause can land between two of its instructions.
	dynamicKernels = []string{"gcd", "crc32", "ibert-sqrt", "euclidean"}
	modes          = []machine.Mode{machine.ModeMPU, machine.ModeBaseline}
	allSpecs       = append(backends.All(), backends.SIMDRAM())
	allKernels     = func() (names []string) {
		for _, k := range workloads.All() {
			names = append(names, k.Name)
		}
		return names
	}()
)

// cell is one program on one back end, in one mode and shape. Exactly one
// of k, app and progs is set.
type cell struct {
	name  string
	spec  *backends.Spec
	mode  machine.Mode
	k     *workloads.Kernel // one MPU over vrfs VRFs, or SPMD on spmdMPUs when vrfs is 0
	vrfs  int
	app   string        // LLMEncode, BlackScholes or EditDistance
	progs []isa.Program // a rendezvous pair, one program per MPU
}

// cells returns a kernel cell per shape, back end, mode and kernel; a shape
// of 0 VRFs is the SPMD one.
func cells(specs []*backends.Spec, vrfs []int, kernels []string) []*cell {
	var out []*cell
	for _, n := range vrfs {
		shape := fmt.Sprintf("%dvrf", n)
		if n == 0 {
			shape = fmt.Sprintf("%dmpu", spmdMPUs)
		}
		for _, spec := range specs {
			for _, mode := range modes {
				for _, kn := range kernels {
					out = append(out, &cell{name: fmt.Sprintf("%s/%s/%s/%s", kn, spec.Name, mode, shape),
						spec: spec, mode: mode, k: workloads.ByName(kn), vrfs: n})
				}
			}
		}
	}
	return out
}

// appCells are the three apps, which reach the rendezvous barrier (ring,
// pipeline and gather traffic) that the SPMD kernels never do.
func appCells(specs []*backends.Spec) []*cell {
	var out []*cell
	for _, spec := range specs {
		for _, mode := range modes {
			for _, app := range []string{"LLMEncode", "BlackScholes", "EditDistance"} {
				out = append(out, &cell{name: fmt.Sprintf("%s/%s/%s", app, spec.Name, mode), spec: spec, mode: mode, app: app})
			}
		}
	}
	return out
}

// rendezvousCells pin in-flight SEND/RECV waits from both sides, on RACER:
// with a NOP prelude on mpu0 it computes before sending, so mpu1 sits
// blocked in RECV over many instruction boundaries (recv-waits); with the
// prelude on mpu1 it is mpu0 that sits blocked in SEND (send-waits). A
// pause, snapshot or resume that drops or forges a pending wait deadlocks
// the run or charges the rendezvous different cycles.
func rendezvousCells(t *testing.T) []*cell {
	prelude := strings.Repeat("NOP\n", 12)
	const send = "SEND mpu1\nMOVE rfh0 rfh0\nMEMCPY vrf0 r0 vrf0 r0\nMOVE_DONE\nSEND_DONE\n"
	const recv = "RECV mpu0\nNOP\n"
	var out []*cell
	for _, w := range []struct{ name, sender, receiver string }{
		{"recv-waits", prelude + send, recv},
		{"send-waits", send, prelude + recv},
	} {
		sender, err1 := isa.Assemble(w.sender)
		receiver, err2 := isa.Assemble(w.receiver)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		progs := []isa.Program{sender, receiver}
		for _, mode := range modes {
			out = append(out, &cell{name: fmt.Sprintf("rendezvous-%s/RACER/%s", w.name, mode),
				spec: backends.RACER(), mode: mode, progs: progs})
		}
	}
	return out
}

// arm is how a row runs a cell: its worker count, whether it runs the
// reference interpreter, and whether it writes an execution log.
type arm struct {
	workers int
	noTrace bool
	logged  bool
}

// runConfig is a one-MPU kernel cell's workloads run under a.
func (c *cell) runConfig(a arm) workloads.RunConfig {
	return workloads.RunConfig{
		Spec: c.spec, Mode: c.mode, Seed: 1,
		TotalElements: c.spec.BaselineUnits * c.spec.Lanes * c.vrfs,
		MaxSimVRFs:    c.vrfs, ActiveVRFsOverride: 1, Workers: a.workers, NoTrace: a.noTrace,
	}
}

// config is the machine c runs on under a, log aside.
func (c *cell) config(a arm) machine.Config {
	cfg := machine.Config{Spec: c.spec, Mode: c.mode, NumMPUs: spmdMPUs, Workers: a.workers, NoTrace: a.noTrace}
	switch {
	case c.progs != nil:
		cfg.NumMPUs = len(c.progs)
	case c.vrfs > 0:
		cfg = workloads.MachineConfigFor(c.runConfig(a))
	}
	return cfg
}

// prepare builds a machine for arm a with c's program and inputs loaded,
// and the buffer its execution log goes to if a is logged.
func (c *cell) prepare(t *testing.T, a arm) (*machine.Machine, *bytes.Buffer) {
	t.Helper()
	cfg := c.config(a)
	var log *bytes.Buffer
	if a.logged {
		log = new(bytes.Buffer)
		cfg.Trace = log
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.load(t, m, a)
	return m, log
}

// load resets m and loads c's program and inputs onto it.
func (c *cell) load(t *testing.T, m *machine.Machine, a arm) {
	t.Helper()
	switch {
	case c.progs != nil:
		m.Reset()
		for id, p := range c.progs {
			if err := m.LoadProgram(id, p); err != nil {
				t.Fatal(err)
			}
		}
	case c.vrfs == 0:
		m.Reset()
		loadSPMD(t, m, c.k)
	default:
		if _, err := workloads.PrepareOn(m, c.k, c.runConfig(a)); err != nil {
			t.Fatal(err)
		}
	}
}

// loadSPMD loads kernel k's program over spmdVRFs VRFs onto every MPU of m
// and writes the same inputs to each: the shape in which run phases fan the
// cores out across the workers.
func loadSPMD(t *testing.T, m *machine.Machine, k *workloads.Kernel) {
	t.Helper()
	prog, addrs, err := workloads.BuildProgram(k, m.Spec(), spmdVRFs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	lanes := m.Spec().Lanes
	inputs := k.Gen(rand.New(rand.NewSource(1)), spmdVRFs*lanes)
	for mpu := 0; mpu < m.NumMPUs(); mpu++ {
		for reg, vals := range inputs {
			for v, a := range addrs {
				if err := m.WriteVector(mpu, a, reg, vals[v*lanes:(v+1)*lanes]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// outcome is what a finished run leaves to compare; an app's holds only its
// Stats.
type outcome struct {
	st              machine.Stats
	stats           []byte // Stats JSON
	machine, logged bool   // regs and snap were read; log was
	regs, snap, log [sha256.Size]byte
}

// collect reads what the finished run st on m, which wrote its execution
// log to log (nil: none), leaves to compare.
func (c *cell) collect(t *testing.T, m *machine.Machine, st *machine.Stats, log *bytes.Buffer) outcome {
	t.Helper()
	o := outcome{st: *st, stats: statsBytes(t, st), machine: true, snap: sha256.Sum256(m.Snapshot())}
	addrs := []controlpath.VRFAddr{{}}
	if c.k != nil {
		var err error
		if _, addrs, err = workloads.BuildProgram(c.k, c.spec, max(c.vrfs, spmdVRFs)); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	var b []byte
	for mpu := 0; mpu < m.NumMPUs(); mpu++ {
		for _, a := range addrs {
			for r := 0; r < isa.NumRegs; r++ {
				v, err := m.ReadVector(mpu, a, r)
				if err != nil {
					t.Fatal(err)
				}
				b = b[:0]
				for _, x := range v {
					b = binary.LittleEndian.AppendUint64(b, x)
				}
				h.Write(b)
			}
		}
	}
	h.Sum(o.regs[:0])
	if log != nil {
		o.logged, o.log = true, sha256.Sum256(log.Bytes())
	}
	return o
}

// run runs c uninterrupted under a.
func (c *cell) run(t *testing.T, a arm) outcome {
	t.Helper()
	if c.app != "" {
		var res *apps.Result
		var err error
		switch c.app {
		case "LLMEncode":
			res, err = apps.RunLLMEncode(apps.LLMEncodeConfig{Spec: c.spec, Mode: c.mode, Seed: 1, NoTrace: a.noTrace, MachineWorkers: a.workers})
		case "BlackScholes":
			res, err = apps.RunBlackScholes(apps.BlackScholesConfig{Spec: c.spec, Mode: c.mode, Seed: 1, NoTrace: a.noTrace, MachineWorkers: a.workers})
		default:
			res, err = apps.RunEditDistance(apps.EditDistanceConfig{Spec: c.spec, Mode: c.mode, Seed: 1, NoTrace: a.noTrace, MachineWorkers: a.workers})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return outcome{st: *res.Stats, stats: statsBytes(t, res.Stats)}
	}
	m, log := c.prepare(t, a)
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s (workers %d, notrace %v): %v", c.name, a.workers, a.noTrace, err)
	}
	return c.collect(t, m, st, log)
}

// refArm names an uninterrupted Workers 1 run the reference table holds.
type refArm int

const (
	refEngine  refArm = iota // the engine
	refNoTrace               // the reference interpreter
	refLogged                // a logging machine, with its execution log
)

func (r refArm) arm() arm { return arm{workers: 1, noTrace: r == refNoTrace, logged: r == refLogged} }

type refEntry struct {
	once sync.Once
	out  *outcome // nil if the reference run failed
}

// refs is the reference table: an entry per cell name and reference arm,
// built by the first row that asks for it.
var refs sync.Map // [2]any{name, refArm} → *refEntry

// ref returns c's reference run on arm r.
func (c *cell) ref(t *testing.T, r refArm) outcome {
	t.Helper()
	v, _ := refs.LoadOrStore([2]any{c.name, r}, new(refEntry))
	e := v.(*refEntry)
	e.once.Do(func() {
		o := c.run(t, r.arm())
		e.out = &o
	})
	if e.out == nil {
		t.Fatalf("%s: the reference run failed", c.name)
	}
	return *e.out
}

// requireSame fails the test unless got left what want did.
func requireSame(t *testing.T, what string, want, got outcome) {
	t.Helper()
	if !reflect.DeepEqual(want.st, got.st) || !bytes.Equal(want.stats, got.stats) {
		t.Errorf("%s: stats diverge from the reference:\nref: %s\ngot: %s", what, want.stats, got.stats)
	}
	if want.machine && got.machine && want.regs != got.regs {
		t.Errorf("%s: registers diverge from the reference", what)
	}
	if want.machine && got.machine && want.snap != got.snap {
		t.Errorf("%s: final snapshot diverges from the reference", what)
	}
	if want.logged && got.logged && want.log != got.log {
		t.Errorf("%s: execution log diverges from the reference", what)
	}
}

// requireParity holds the engine's stats to the reference interpreter's,
// all but the counters that describe simulator execution strategy rather
// than modeled hardware.
func requireParity(t *testing.T, name string, eng, notrace *machine.Stats) {
	t.Helper()
	a, b := *eng, *notrace
	for _, s := range []*machine.Stats{&a, &b} {
		s.TraceHits, s.TraceMisses, s.TraceFallbacks, s.JITCompiles, s.JITReplays = 0, 0, 0, 0, 0
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats diverge between trace engine on and off:\n engine: %+v\nnotrace: %+v", name, a, b)
	}
	if notrace.TraceHits+notrace.TraceMisses+notrace.TraceFallbacks != 0 {
		t.Errorf("%s: NoTrace run reported trace counters: %+v", name, notrace)
	}
	if notrace.JITCompiles+notrace.JITReplays != 0 {
		t.Errorf("%s: NoTrace run reported JIT counters: %+v", name, notrace)
	}
	if eng.JITReplays != eng.TraceHits {
		t.Errorf("%s: %d compiled replays for %d trace hits — every replayed round runs the compiled chain", name, eng.JITReplays, eng.TraceHits)
	}
}

// fanOutAll lowers the chunk floor to 1 and makes sure two goroutines can
// run at once, until the test ends: every round of two or more full groups,
// and every smaller one of three or more VRFs, fans out, not only the ones
// heavy enough in production.
func fanOutAll(t *testing.T) {
	t.Cleanup(machine.SetChunkFloor(1))
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// eachCell runs f on every cell as a parallel subtest.
func eachCell(t *testing.T, cs []*cell, f func(t *testing.T, c *cell)) {
	for _, c := range cs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f(t, c)
		})
	}
}

func TestMachineMatrix(t *testing.T) {
	t.Run("workers2", func(t *testing.T) {
		fanOutAll(t)
		eachCell(t, slices.Concat(cells(allSpecs, []int{matrixVRFs}, allKernels), cells(allSpecs, smallVRFs, smallKernels)),
			func(t *testing.T, c *cell) { requireSame(t, c.name, c.ref(t, refEngine), c.run(t, arm{workers: 2})) })
	})
	t.Run("workers4", func(t *testing.T) {
		eachCell(t, slices.Concat(cells([]*backends.Spec{backends.RACER()}, []int{0}, allKernels), appCells(allSpecs)),
			func(t *testing.T, c *cell) { requireSame(t, c.name, c.ref(t, refEngine), c.run(t, arm{workers: 4})) })
	})
	t.Run("decode-flush", rowDecodeFlush)
	t.Run("resume", rowResume)
	t.Run("reset", rowReset)
}

// The notrace and restore rows keep the names of the tests they grew out
// of and share the reference table with TestMachineMatrix. In every row a
// cell's name is the subtest two levels below the top, so
// -run '(TestMachineMatrix|TestTraceParity|TestSnapshotResumeParity)//gcd/RACER/'
// reaches every row on gcd on RACER.

// TestTraceParity is the notrace row on the kernels (one MPU at 16 VRFs,
// and SPMD) and the rendezvous pairs.
func TestTraceParity(t *testing.T) {
	t.Run("notrace", func(t *testing.T) {
		rowNoTrace(t, slices.Concat(cells(backends.All(), []int{matrixVRFs, 0}, allKernels), rendezvousCells(t)), true)
	})
}

// TestTraceParityApps is the notrace row on the three apps.
func TestTraceParityApps(t *testing.T) {
	t.Run("notrace", func(t *testing.T) { rowNoTrace(t, appCells(backends.All()), false) })
}

// TestSnapshotResumeParity is the restore row on the SPMD kernels, one
// subtest per back end.
func TestSnapshotResumeParity(t *testing.T) {
	for _, spec := range backends.All() {
		t.Run(spec.Name, func(t *testing.T) { rowRestore(t, cells([]*backends.Spec{spec}, []int{0}, allKernels)) })
	}
}

// TestSnapshotResumeParityRendezvous is the restore row on the rendezvous
// pairs, whose pauses land inside in-flight SEND/RECV waits.
func TestSnapshotResumeParityRendezvous(t *testing.T) {
	t.Run("restore", func(t *testing.T) { rowRestore(t, rendezvousCells(t)) })
}

// rowRestore pauses each cell at every instruction boundary, snapshots it
// and restores it into a fresh machine (resumePreempted), and holds the
// final state to the engine's uninterrupted run.
func rowRestore(t *testing.T, cs []*cell) {
	eachCell(t, cs, func(t *testing.T, c *cell) {
		m, _ := c.prepare(t, arm{workers: 1})
		st, m := resumePreempted(t, c.name, m, c.config(arm{workers: 1}))
		requireSame(t, c.name, c.ref(t, refEngine), c.collect(t, m, st, nil))
	})
}

// rowNoTrace holds the engine to the reference interpreter: the stats
// (engine counters stripped) and every register. A dynamic body must never
// replay from a trace, and, if engages, across cs rounds must replay (the
// apps' rounds are too small to).
func rowNoTrace(t *testing.T, cs []*cell, engages bool) {
	var ran, hits, replays atomic.Uint64
	t.Cleanup(func() { // after every cell's subtest
		if engages && ran.Load() == uint64(len(cs)) && (hits.Load() == 0 || replays.Load() == 0) {
			t.Errorf("%d trace hits and %d compiled replays in the whole row — the engine never engaged", hits.Load(), replays.Load())
		}
	})
	eachCell(t, cs, func(t *testing.T, c *cell) {
		eng, ref := c.ref(t, refEngine), c.ref(t, refNoTrace)
		requireParity(t, c.name, &eng.st, &ref.st)
		if eng.machine && eng.regs != ref.regs {
			t.Errorf("%s: registers diverge between trace engine on and off", c.name)
		}
		ran.Add(1)
		hits.Add(eng.st.TraceHits)
		replays.Add(eng.st.JITReplays)
		if st := &eng.st; c.vrfs == matrixVRFs && slices.Contains(dynamicKernels, c.k.Name) &&
			(st.TraceHits != 0 || st.TraceFallbacks == 0 || st.JITCompiles != 0) {
			t.Errorf("%s: dynamic-control-flow body: %d trace hits, %d fallback rounds, %d JIT compiles; want every round interpreted",
				c.name, st.TraceHits, st.TraceFallbacks, st.JITCompiles)
		}
	})
}

// rowDecodeFlush runs the engine and the reference interpreter through a
// decode table that empties itself on every insert: no machine finds
// another's entry, and no result may move. The budget is process-wide, so
// each cell takes its references before it goes parallel, and the budget
// drops only once every cell has.
func rowDecodeFlush(t *testing.T) {
	for _, c := range cells(backends.All(), []int{matrixVRFs}, allKernels) {
		t.Run(c.name, func(t *testing.T) {
			want := [2]outcome{c.ref(t, refEngine), c.ref(t, refNoTrace)}
			t.Parallel()
			flushes := machine.DecodeTableStats().Flushes
			got := [2]outcome{c.run(t, arm{workers: 1}), c.run(t, arm{workers: 1, noTrace: true})}
			if machine.DecodeTableStats().Flushes == flushes {
				t.Errorf("%s: the decode table was never emptied — the budget never engaged", c.name)
			}
			requireSame(t, c.name+" engine", want[0], got[0])
			requireSame(t, c.name+" notrace", want[1], got[1])
		})
	}
	// The parallel halves start when this returns and end before cleanup.
	t.Cleanup(machine.SetDecodeBudgets(1, machine.DecodeBudget))
}

// rowResume pauses at every instruction boundary and resumes in place, on
// one goroutine and on two with the chunk floor at 1 (so rounds are fanned
// out when the yield lands): the dynamic kernels on the engine and on a
// logging machine, and every kernel on the reference interpreter, which
// interprets every round. Every Run call that starts inside a paused round
// must execute exactly one body instruction before it yields again.
func rowResume(t *testing.T) {
	fanOutAll(t)
	variants := []struct {
		name    string
		ref     refArm
		workers int
	}{
		{"engine-w1", refEngine, 1}, {"engine-w2", refEngine, 2}, {"log", refLogged, 1},
		{"notrace-w1", refNoTrace, 1}, {"notrace-w2", refNoTrace, 2},
	}
	for _, c := range cells(backends.All(), []int{matrixVRFs}, allKernels) {
		for _, v := range variants {
			if v.ref != refNoTrace && !slices.Contains(dynamicKernels, c.k.Name) {
				continue
			}
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				a := v.ref.arm()
				a.workers = v.workers
				m, log := c.prepare(t, a)
				mids := 0
				for calls := 0; ; calls++ {
					mid, before := m.PausedMidRound(), m.BodyInstructions()
					m.Preempt()
					st, err := m.Run()
					if err == nil {
						if mids == 0 {
							t.Errorf("%s: no Run call started inside a paused round", c.name)
						}
						requireSame(t, c.name+"/"+v.name, c.ref(t, v.ref), c.collect(t, m, st, log))
						return
					}
					if !errors.Is(err, machine.ErrPreempted) || calls > 1<<20 {
						t.Fatalf("run %d: %v", calls, err)
					}
					if mid {
						mids++
						if n := m.BodyInstructions() - before; n != 1 {
							t.Fatalf("run %d resumed a paused round and executed %d body instructions before yielding, want 1", calls, n)
						}
					}
				}
			})
		}
	}
}

// resumePreempted drives m to completion while preempting before every
// segment: each Run call is asked to yield at its first instruction
// boundary, the machine is snapshotted and thrown away, and a fresh machine
// — built with the next worker count in the rotation, since the
// fingerprint deliberately excludes Workers — is restored from the bytes,
// which must re-snapshot to the same bytes, and resumed. It returns the
// final stats and the machine that produced them.
func resumePreempted(t *testing.T, name string, m *machine.Machine, cfg machine.Config) (*machine.Stats, *machine.Machine) {
	t.Helper()
	workerSeq := []int{4, 1, 2}
	for i := 0; ; i++ {
		m.Preempt()
		st, err := m.Run()
		if err == nil {
			return st, m
		}
		if !errors.Is(err, machine.ErrPreempted) || i > 1<<20 {
			t.Fatalf("%s: run at boundary %d: %v", name, i, err)
		}
		data := m.Snapshot()
		cfg.Workers = workerSeq[i%len(workerSeq)]
		fresh, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(data); err != nil {
			t.Fatalf("%s: restore at boundary %d: %v", name, i, err)
		}
		if again := fresh.Snapshot(); !bytes.Equal(again, data) {
			t.Fatalf("%s: snapshot round-trip diverged at boundary %d (%d vs %d bytes)", name, i, len(again), len(data))
		}
		m = fresh
	}
}

// rowReset runs each cell on a machine that ran another program first, as
// serve's warm pools reuse one: conv2d3x3, the kernel with the most inputs
// (sobelx before conv2d3x3 itself), or the other rendezvous pair.
func rowReset(t *testing.T) {
	rdv := rendezvousCells(t)
	eachCell(t, slices.Concat(cells(allSpecs, []int{matrixVRFs, 0}, allKernels), rdv), func(t *testing.T, c *cell) {
		prev := *c
		switch {
		case c.progs != nil:
			prev.progs = rdv[(slices.Index(rdv, c)+2)%len(rdv)].progs
		case c.k.Name == "conv2d3x3":
			prev.k = workloads.ByName("sobelx")
		default:
			prev.k = workloads.ByName("conv2d3x3")
		}
		a := arm{workers: 1}
		m, _ := prev.prepare(t, a)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		c.load(t, m, a)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, c.name, c.ref(t, refEngine), c.collect(t, m, st, nil))
	})
}
