package machine_test

// Snapshot/restore: the codec's refusals and its canonical form. That a
// restored machine resumes byte-identical to an uninterrupted run is the
// matrix's restore row.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/trace"
	"mpu/internal/workloads"
)

// TestRestoreRejectsMismatchedMachine pins the fingerprint check: a
// snapshot must not restore into a machine with a different configuration,
// and a failed restore must leave the target untouched.
func TestRestoreRejectsMismatchedMachine(t *testing.T) {
	k := workloads.All()[0]
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	m := mustNew(t, cfg)
	loadSPMD(t, m, k)
	data := m.Snapshot()

	for _, alt := range []machine.Config{
		{Spec: backends.RACER(), Mode: machine.ModeBaseline, NumMPUs: 2, Workers: 1},
		{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 3, Workers: 1},
		{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1, NoTrace: true},
	} {
		other, err := machine.New(alt)
		if err != nil {
			t.Fatal(err)
		}
		before := other.Snapshot()
		if err := other.Restore(data); err == nil {
			t.Errorf("restore into %+v machine succeeded, want fingerprint mismatch", alt)
		} else if !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("restore into %+v machine: %v, want fingerprint mismatch", alt, err)
		}
		if !bytes.Equal(before, other.Snapshot()) {
			t.Errorf("failed restore into %+v machine mutated its state", alt)
		}
	}

	// Same config, different worker count: must restore cleanly.
	par, err := machine.New(machine.Config{Spec: cfg.Spec, Mode: cfg.Mode, NumMPUs: cfg.NumMPUs, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Restore(data); err != nil {
		t.Errorf("restore into parallel machine: %v", err)
	}
}

// TestRestoreRejectsCorruption flips a spread of bytes across a valid
// snapshot (every position would take minutes; the trailing checksum makes
// position irrelevant anyway) and requires a decode error from each. A
// restored-from-corruption machine must never hold state that does not
// round-trip.
func TestRestoreRejectsCorruption(t *testing.T) {
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	m := mustNew(t, cfg)
	loadSPMD(t, m, workloads.All()[0])
	m.Preempt()
	if _, err := m.Run(); !errors.Is(err, machine.ErrPreempted) {
		t.Fatalf("expected preemption, got %v", err)
	}
	data := m.Snapshot()
	tried, corrupted := 0, 0
	for i := 0; i < len(data); i += 1 + i/8 { // dense up front (header, fingerprint), sparse later
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		fresh, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tried++
		if err := fresh.Restore(mut); err != nil {
			corrupted++
		}
	}
	// The checksum alone catches every single-byte flip; the count pins
	// that no mutation silently restores.
	if corrupted != tried {
		t.Errorf("%d of %d single-byte corruptions restored without error", tried-corrupted, tried)
	}

	// A stream under the first format's magic, resealed so that it passes
	// the checksum: Restore reads one layout and refuses every older one.
	magic := []byte("MPUSNAP")
	i := bytes.Index(data, magic)
	if i < 0 {
		t.Fatal("no snapshot magic in the stream")
	}
	old := append([]byte(nil), data...)
	old[i+len(magic)] = '1'
	fresh := mustNew(t, cfg)
	before := fresh.Snapshot()
	if err := fresh.Restore(reseal(old)); err == nil || !strings.Contains(err.Error(), "MPUSNAP1") {
		t.Errorf("restore of an MPUSNAP1 stream: %v, want a magic error", err)
	}
	if !bytes.Equal(before, fresh.Snapshot()) {
		t.Error("failed restore of an MPUSNAP1 stream mutated the machine")
	}
}

// pausedMidRound returns a one-MPU gcd machine paused between two body
// instructions of an interpreted round.
func pausedMidRound(t *testing.T, cfg machine.Config) *machine.Machine {
	t.Helper()
	m := mustNew(t, cfg)
	loadSPMD(t, m, workloads.ByName("gcd"))
	for i := 0; !m.PausedMidRound(); i++ {
		if i == 1000 {
			t.Fatal("gcd never paused inside a round")
		}
		m.Preempt()
		if _, err := m.Run(); !errors.Is(err, machine.ErrPreempted) {
			t.Fatalf("expected preemption, got %v", err)
		}
	}
	return m
}

// TestRestoreRejectsBadResumePoint pins the checks on a paused round's
// position: a pc outside the body (with no call pending), a step count
// below zero or above MaxSteps, and a non-finite energy accumulator. Each
// is refused, and the machine it was restored into is left untouched.
func TestRestoreRejectsBadResumePoint(t *testing.T) {
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 1, Workers: 1}
	// The unforged stream restores: each case below breaks one field.
	if err := mustNew(t, cfg).Restore(pausedMidRound(t, cfg).Snapshot()); err != nil {
		t.Fatalf("restoring a mid-round snapshot: %v", err)
	}
	streams := map[string][]byte{}
	for name, forge := range map[string]func(pc, steps *int, bodyPJ, hostPJ *float64){
		"pc on the ensemble header": func(pc, _ *int, _, _ *float64) { *pc = 0 },
		"pc past the program":       func(pc, _ *int, _, _ *float64) { *pc = 1 << 20 },
		"negative steps":            func(_, steps *int, _, _ *float64) { *steps = -1 },
		"steps past MaxSteps":       func(_, steps *int, _, _ *float64) { *steps = 50_000_001 },
		"NaN body energy":           func(_, _ *int, bodyPJ, _ *float64) { *bodyPJ = math.NaN() },
		"infinite host energy":      func(_, _ *int, _, hostPJ *float64) { *hostPJ = math.Inf(1) },
	} {
		m := pausedMidRound(t, cfg)
		m.ForgeResumePoint(forge)
		streams[name] = m.Snapshot()
	}
	for name, data := range streams {
		fresh := mustNew(t, cfg)
		before := fresh.Snapshot()
		if err := fresh.Restore(data); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
		if !bytes.Equal(before, fresh.Snapshot()) {
			t.Errorf("%s: failed restore mutated the machine", name)
		}
	}
}

// forgeProgram's body calls a subroutine, so its recorded trace has exec
// steps on both sides of a JUMP: ADD at pc 5, SUB at pc 1, XOR at pc 7.
const forgeProgram = `
	JUMP main
sub:
	SUB r2 r1 r3
	RETURN
main:
	COMPUTE rfh0 vrf0
	COMPUTE rfh0 vrf1
	ADD r0 r1 r2
	JUMP sub
	XOR r3 r0 r4
	COMPUTE_DONE
`

// TestRestoreRejectsForgedTraceSteps pins the checks on a trace's steps: an
// exec step must name a datapath instruction of the program, whose kernel
// Restore takes from its decode, the kernels must run the micro-ops the
// trace charges, and every step kind must be one a recorder writes. Each
// forgery is refused, and the machine it was restored into is left
// untouched.
func TestRestoreRejectsForgedTraceSteps(t *testing.T) {
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 1, Workers: 1, ActiveVRFsOverride: 1}
	prog, err := isa.Assemble(forgeProgram)
	if err != nil {
		t.Fatal(err)
	}
	// recorded returns the snapshot of a run whose second round replayed the
	// trace, after f rewrote the trace.
	recorded := func(f func(tr *trace.Trace)) []byte {
		m := mustNew(t, cfg)
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.TraceMisses != 1 || st.TraceHits != 1 {
			t.Fatalf("trace misses/hits = %d/%d, want 1/1", st.TraceMisses, st.TraceHits)
		}
		m.ForgeTraces(f)
		return m.Snapshot()
	}
	data := recorded(func(tr *trace.Trace) {
		var pcs []int
		for _, s := range tr.Steps {
			pcs = append(pcs, s.PC)
		}
		if !reflect.DeepEqual(pcs, []int{5, 1, 7}) {
			t.Fatalf("recorded exec steps at pcs %v, want [5 1 7]", pcs)
		}
	})
	if err := mustNew(t, cfg).Restore(data); err != nil {
		t.Fatalf("restoring the unforged stream: %v", err)
	}
	const badPC, badOps = "names no datapath instruction", "micro-ops per VRF"
	for name, c := range map[string]struct {
		forge func(tr *trace.Trace)
		want  string
	}{
		"pc past the program":           {func(tr *trace.Trace) { tr.Steps[0].PC = len(prog) }, badPC},
		"negative pc":                   {func(tr *trace.Trace) { tr.Steps[0].PC = -1 }, badPC},
		"pc on a COMPUTE header":        {func(tr *trace.Trace) { tr.Steps[0].PC = 3 }, badPC},
		"pc on a JUMP":                  {func(tr *trace.Trace) { tr.Steps[1].PC = 6 }, badPC},
		"pc on COMPUTE_DONE":            {func(tr *trace.Trace) { tr.Steps[2].PC = 8 }, badPC},
		"micro-ops short of the charge": {func(tr *trace.Trace) { tr.Steps = tr.Steps[:2] }, badOps},
		"micro-ops past the charge":     {func(tr *trace.Trace) { tr.Steps = append(tr.Steps, tr.Steps[0]) }, badOps},
		"unknown step kind":             {func(tr *trace.Trace) { tr.Steps[0].Kind = trace.StepGetMask + 1 }, "unknown"},
	} {
		forged := recorded(c.forge)
		fresh := mustNew(t, cfg)
		before := fresh.Snapshot()
		if err := fresh.Restore(forged); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore: %v, want an error containing %q", name, err, c.want)
		}
		if !bytes.Equal(before, fresh.Snapshot()) {
			t.Errorf("%s: failed restore mutated the machine", name)
		}
	}
}

func mustNew(t *testing.T, cfg machine.Config) *machine.Machine {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotAfterFailedRun pins validate-then-mutate in core.run: a Run that
// fails on a SEND or RECV naming a core the machine does not have must leave
// state Snapshot can emit and Restore accepts (the serve tier's advanceSession
// parks with Snapshot after a failed Run by design).
func TestSnapshotAfterFailedRun(t *testing.T) {
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	for _, op := range []isa.Op{isa.SEND, isa.RECV} {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(isa.Program{{Op: op, Imm: 7}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "unknown mpu7") {
			t.Fatalf("%s mpu7 on a 2-MPU machine: Run = %v, want an unknown-mpu error", op, err)
		}
		data := m.Snapshot()
		twin, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Restore(data); err != nil {
			t.Fatalf("%s: snapshot taken after a failed Run does not restore: %v", op, err)
		}
		if !bytes.Equal(twin.Snapshot(), data) {
			t.Errorf("%s: snapshot taken after a failed Run does not round-trip", op)
		}
	}
}

// reseal recomputes a mutated stream's trailing checksum, so the mutation
// reaches the decoder instead of dying at the integrity check.
func reseal(data []byte) []byte {
	n := len(data) - 4
	binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n], crc32.MakeTable(crc32.Castagnoli)))
	return data
}

// ghostLaneMutants returns one mutant of a 48-lane snapshot per plane word
// equal to pattern, each with lane bit 48 — one past the last lane — set in
// that word.
func ghostLaneMutants(data []byte, pattern uint64) [][]byte {
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], pattern)
	var mutants [][]byte
	for off := 0; ; {
		i := bytes.Index(data[off:], le[:])
		if i < 0 {
			return mutants
		}
		mut := append([]byte(nil), data...)
		mut[off+i+6] |= 1 // bit 48 of the little-endian word
		mutants = append(mutants, reseal(mut))
		off += i + 8
	}
}

// allLanes48 is a 48-lane plane with every lane set: each VRF's
// constant-one plane and (unmasked) mask plane.
const allLanes48 = uint64(1)<<48 - 1

// TestRestoreRejectsGhostLanes pins the check a lane count that leaves a
// tail needs: a set bit at or beyond the lane count in any plane is
// refused, and the machine is left untouched.
func TestRestoreRejectsGhostLanes(t *testing.T) {
	cfg := machine.Config{Spec: fuzzSpec(), Mode: machine.ModeMPU, NumMPUs: 1, Workers: 1, ActiveVRFsOverride: 1}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble("COMPUTE rfh0 vrf0\nCOMPUTE rfh0 vrf1\nADD r0 r1 r2\nCOMPUTE_DONE\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	// A marker pattern locates one register plane in the stream: r5 bit 0.
	const marker = uint64(0x0000_a5c3_96e1_5a3d)
	vals := make([]uint64, cfg.Spec.Lanes)
	for l := range vals {
		vals[l] = marker >> uint(l) & 1
	}
	for v := 0; v < 2; v++ {
		if err := m.WriteVector(0, controlpath.VRFAddr{VRF: uint8(v)}, 5, vals); err != nil {
			t.Fatal(err)
		}
	}
	data := m.Snapshot()
	mutants := append(ghostLaneMutants(data, marker), ghostLaneMutants(data, allLanes48)...)
	if len(mutants) != 6 { // per VRF: the marker plane, the one plane, the mask plane
		t.Fatalf("located %d plane words to corrupt, want 6", len(mutants))
	}

	fresh, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(data); err != nil {
		t.Fatalf("clean 48-lane snapshot: %v", err)
	}
	for i, mut := range mutants {
		err := fresh.Restore(mut)
		if err == nil || !strings.Contains(err.Error(), "beyond lane 48") {
			t.Errorf("mutant %d: restore: %v, want a bits-beyond-lane-48 error", i, err)
		}
		if !bytes.Equal(fresh.Snapshot(), data) {
			t.Fatalf("mutant %d: failed restore mutated the machine", i)
		}
	}
}

// fuzzSpec is the back end the snapshot fuzzer and the ghost-lane tests
// run on: 48 lanes leave 16 tail bits in every plane's one word, so the
// decoder's tail check is reachable, and one word per plane keeps the
// (full-directory) snapshots as small as the format allows.
func fuzzSpec() *backends.Spec {
	s := backends.RACER()
	s.Name = "fuzz48"
	s.Lanes = 48
	return s
}

// fuzzConfig is the machine FuzzSnapshotRoundTrip restores into.
func fuzzConfig() machine.Config {
	return machine.Config{Spec: fuzzSpec(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
}

// TestFuzzCorpusRestores requires every stream in FuzzSnapshotRoundTrip's
// corpus to restore and round-trip: one in a format Restore refuses tests
// only the refusal.
func TestFuzzCorpusRestores(t *testing.T) {
	files, _ := filepath.Glob("testdata/fuzz/FuzzSnapshotRoundTrip/*")
	for _, name := range files {
		raw, err := os.ReadFile(name)
		lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		data, uerr := strconv.Unquote(lit)
		if err != nil || uerr != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v, %v)", name, err, uerr)
		}
		if m := mustNew(t, fuzzConfig()); m.Restore([]byte(data)) != nil || !bytes.Equal(m.Snapshot(), []byte(data)) {
			t.Errorf("%s: does not restore and round-trip", name)
		}
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
}

// FuzzSnapshotRoundTrip asserts decode∘encode = identity: any byte stream
// Restore accepts must re-snapshot to exactly the input bytes. Combined
// with the matrix's restore row (encode∘decode = identity on real states),
// this pins the format as canonical — there is exactly one serialization
// of any machine state, so snapshot bytes are comparable for equality.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := fuzzConfig()
	// A straight-line ensemble (recorded, then replayed) and a loop of two
	// iterations, whose rounds are interpreted and pause between
	// instructions.
	prog, err := isa.Assemble(`
		COMPUTE rfh0 vrf0
		COMPUTE rfh0 vrf1
		ADD r0 r1 r2
		SUB r2 r1 r3
		COMPUTE_DONE
		NOP
		COMPUTE rfh0 vrf0
		COMPUTE rfh0 vrf1
		INIT0 r4
		INIT1 r5
		ADD r5 r5 r6
	loop:
		SUB r6 r5 r6
		CMPGT r6 r4
		SETMASK cond
		JUMP_COND loop
		UNMASK
		COMPUTE_DONE
	`)
	if err != nil {
		f.Fatal(err)
	}
	build := func() *machine.Machine {
		m, err := machine.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		if err := m.LoadAll(prog); err != nil {
			f.Fatal(err)
		}
		vals := make([]uint64, cfg.Spec.Lanes)
		for i := range vals {
			vals[i] = uint64(i*i + 1)
		}
		for mpu := 0; mpu < cfg.NumMPUs; mpu++ {
			for _, v := range []int{0, 1} {
				for _, reg := range []int{0, 1} {
					if err := m.WriteVector(mpu, controlpath.VRFAddr{RFH: 0, VRF: uint8(v)}, reg, vals); err != nil {
						f.Fatal(err)
					}
				}
			}
		}
		return m
	}
	m := build()
	f.Add(m.Snapshot()) // loaded, not yet run
	mids := 0
	for i := 0; i < 1<<16; i++ {
		m.Preempt()
		if _, err := m.Run(); err == nil {
			break
		} else if !errors.Is(err, machine.ErrPreempted) {
			f.Fatal(err)
		}
		if m.PausedMidRound() {
			mids++
		}
		f.Add(m.Snapshot()) // every boundary: mid-ensemble and mid-round, warm caches
	}
	if mids == 0 {
		f.Fatal("no seed snapshot holds a round paused between two instructions")
	}
	f.Add(m.Snapshot()) // completed run: full stats, installed traces
	// Lane bit 48 set in a 48-lane plane: starts the mutator next to the
	// tail check (TestRestoreRejectsGhostLanes pins the refusal itself).
	f.Add(ghostLaneMutants(m.Snapshot(), allLanes48)[0])
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(data); err != nil {
			return // rejected streams are out of scope; acceptance is what binds
		}
		if again := fresh.Snapshot(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte stream re-encoded to %d different bytes", len(data), len(again))
		}
		// A restored VRF may hold any bit the stream chose; it must count
		// as all-dirty and recycle clean.
		requireNoResidue(t, "restored", fresh)
	})
}
