package machine_test

// Snapshot/restore/resume parity difftest: preemption must be invisible in
// every reported number and every byte of architectural state. Each kernel
// runs twice — once uninterrupted, and once preempted at EVERY ensemble
// boundary, with the machine serialized, discarded, and restored into a
// freshly constructed machine (alternating worker counts, since snapshots
// are scheduler-portable) before each resume. The final Stats, their JSON
// rendering, and a final post-run snapshot must be byte-identical across
// the two runs. Every intermediate snapshot must also survive a
// restore→re-snapshot round trip byte-for-byte, which is the same
// canonical-encoding property FuzzSnapshotRoundTrip hammers with corrupted
// streams.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

const (
	snapMPUs = 4
	snapVRFs = 2
)

// buildSnapKernelMachine instantiates an SPMD machine with kernel k loaded
// and its inputs written — the starting state both the uninterrupted and
// the preempted run share.
func buildSnapKernelMachine(t *testing.T, k *workloads.Kernel, cfg machine.Config) *machine.Machine {
	t.Helper()
	prog, addrs, err := workloads.BuildProgram(k, cfg.Spec, snapVRFs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inputs := k.Gen(rng, snapVRFs*cfg.Spec.Lanes)
	for mpu := 0; mpu < cfg.NumMPUs; mpu++ {
		for reg, vals := range inputs {
			for v := 0; v < snapVRFs; v++ {
				lo := v * cfg.Spec.Lanes
				if err := m.WriteVector(mpu, addrs[v], reg, vals[lo:lo+cfg.Spec.Lanes]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// resumePreempted drives m to completion while preempting before every
// segment: each Run call is immediately asked to yield at its first
// ensemble boundary, the machine is snapshotted and thrown away, and a
// fresh machine — built with the next worker count in the rotation, since
// the fingerprint deliberately excludes Workers — is restored from the
// bytes and resumed. Returns the final stats and the machine that produced
// them.
func resumePreempted(t *testing.T, name string, m *machine.Machine, cfg machine.Config) (*machine.Stats, *machine.Machine) {
	t.Helper()
	workerSeq := []int{4, 1, 2}
	for i := 0; ; i++ {
		if i > 1<<20 {
			t.Fatalf("%s: preemption loop made no progress", name)
		}
		m.Preempt()
		st, err := m.Run()
		if err == nil {
			return st, m
		}
		if !errors.Is(err, machine.ErrPreempted) {
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

// requireSnapshotParity compares an uninterrupted run against a
// preempt-at-every-boundary run: Stats struct, JSON wire rendering, and a
// final post-run snapshot (which covers VRF contents, trace caches, recipe
// tables — the complete architectural state) must all be byte-identical.
func requireSnapshotParity(t *testing.T, name string, ref, got *machine.Stats, refM, gotM *machine.Machine) {
	t.Helper()
	if !reflect.DeepEqual(*ref, *got) {
		t.Errorf("%s: stats diverge between uninterrupted and preempted runs:\n ref: %+v\n got: %+v", name, *ref, *got)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("%s: stats JSON diverges:\n ref: %s\n got: %s", name, refJSON, gotJSON)
	}
	if !bytes.Equal(refM.Snapshot(), gotM.Snapshot()) {
		t.Errorf("%s: final architectural state diverges between uninterrupted and preempted runs", name)
	}
}

func TestSnapshotResumeParity(t *testing.T) {
	specs := backends.All()
	modes := []machine.Mode{machine.ModeMPU, machine.ModeBaseline}
	if testing.Short() {
		specs = specs[:1]
	}
	for _, spec := range specs {
		for _, mode := range modes {
			for _, k := range workloads.All() {
				name := fmt.Sprintf("%s/%s/%s", k.Name, spec.Name, mode)
				cfg := machine.Config{Spec: spec, Mode: mode, NumMPUs: snapMPUs, Workers: 1}
				refM := buildSnapKernelMachine(t, k, cfg)
				ref, err := refM.Run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				preM := buildSnapKernelMachine(t, k, cfg)
				pre, preM := resumePreempted(t, name, preM, cfg)
				requireSnapshotParity(t, name, ref, pre, refM, preM)
			}
		}
	}
}

// TestSnapshotResumeParityRendezvous pins preemption across in-flight
// SEND/RECV waits, which the SPMD kernels never reach, from both sides: with
// the NOP prelude on mpu0 it computes before sending, so mpu1 spends many
// preempted Run calls blocked in RECV; with the prelude on mpu1 it is mpu0
// that sits blocked in SEND. Either wait state rides through snapshot,
// restore, and worker-count changes, and the rendezvous must still charge the
// same cycles as the uninterrupted run — a snapshot that drops or forges a
// pending wait deadlocks the resumed run.
func TestSnapshotResumeParityRendezvous(t *testing.T) {
	prelude := strings.Repeat("NOP\n", 12)
	const send = "SEND mpu1\nMOVE rfh0 rfh0\nMEMCPY vrf0 r0 vrf0 r0\nMOVE_DONE\nSEND_DONE\n"
	const recv = "RECV mpu0\nNOP\n"
	for _, waiter := range []struct{ name, sender, receiver string }{
		{"recv-waits", prelude + send, recv},
		{"send-waits", send, prelude + recv},
	} {
		sender, err := isa.Assemble(waiter.sender)
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := isa.Assemble(waiter.receiver)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []machine.Mode{machine.ModeMPU, machine.ModeBaseline} {
			name := fmt.Sprintf("rendezvous/%s/%s", waiter.name, mode)
			cfg := machine.Config{Spec: backends.RACER(), Mode: mode, NumMPUs: 2, Workers: 1}
			build := func() *machine.Machine {
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadProgram(0, sender); err != nil {
					t.Fatal(err)
				}
				if err := m.LoadProgram(1, receiver); err != nil {
					t.Fatal(err)
				}
				return m
			}
			refM := build()
			ref, err := refM.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pre, preM := resumePreempted(t, name, build(), cfg)
			requireSnapshotParity(t, name, ref, pre, refM, preM)
		}
	}
}

// TestRestoreRejectsMismatchedMachine pins the fingerprint check: a
// snapshot must not restore into a machine with a different configuration,
// and a failed restore must leave the target untouched.
func TestRestoreRejectsMismatchedMachine(t *testing.T) {
	k := workloads.All()[0]
	cfg := machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	m := buildSnapKernelMachine(t, k, cfg)
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
	m := buildSnapKernelMachine(t, workloads.All()[0], cfg)
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

// FuzzSnapshotRoundTrip asserts decode∘encode = identity: any byte stream
// Restore accepts must re-snapshot to exactly the input bytes. Combined
// with TestSnapshotResumeParity (encode∘decode = identity on real states),
// this pins the format as canonical — there is exactly one serialization
// of any machine state, so snapshot bytes are comparable for equality.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := machine.Config{Spec: fuzzSpec(), Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	prog, err := isa.Assemble(`
		COMPUTE rfh0 vrf0
		COMPUTE rfh0 vrf1
		ADD r0 r1 r2
		SUB r2 r1 r3
		COMPUTE_DONE
		NOP
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
	for i := 0; i < 1<<16; i++ {
		m.Preempt()
		if _, err := m.Run(); err == nil {
			break
		} else if !errors.Is(err, machine.ErrPreempted) {
			f.Fatal(err)
		}
		f.Add(m.Snapshot()) // every boundary: mid-ensemble rounds, warm caches
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
