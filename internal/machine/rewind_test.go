// Rewind tests live in the external test package for the same reason the
// Reset tests do: they drive the machine through internal/workloads.
package machine_test

import (
	"bytes"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// warmMachine builds a machine on the engine or the interpreter, runs
// sobelx on it once (recording traces and warming the recipe table), and
// returns it. sobelx is straight-line and fits both the playback buffer and
// the recipe table, so every later round of a rewound run replays.
func warmMachine(t testing.TB, noTrace bool, vrfs int) *machine.Machine {
	t.Helper()
	return warmKernel(t, "sobelx", noTrace, vrfs)
}

// warmKernel is warmMachine for any workload kernel.
func warmKernel(t testing.TB, kernel string, noTrace bool, vrfs int) *machine.Machine {
	t.Helper()
	spec := backends.RACER()
	cfg := workloads.RunConfig{
		Spec: spec, Mode: machine.ModeMPU, Seed: 1,
		TotalElements: spec.BaselineUnits * spec.Lanes * vrfs,
		MaxSimVRFs:    vrfs, ActiveVRFsOverride: 1, Workers: 1,
		NoTrace: noTrace,
	}
	m, err := machine.New(workloads.MachineConfigFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.RunOn(m, workloads.ByName(kernel), cfg); err != nil {
		t.Fatal(err)
	}
	return m
}

func rewindRun(t testing.TB, m *machine.Machine) *machine.Stats {
	t.Helper()
	m.Rewind()
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRewindSteadyState pins the resident-kernel regime Rewind models: the
// rewound run decodes against a warm recipe table and replays the traces
// the first run recorded — every round a hit, every replay through the
// closure chain compiled during the first run (no new lowering) — and the
// regime is a fixed point: a second rewound run reproduces the first's
// stats byte for byte. Engine and interpreter must also agree in steady
// state exactly as they do cold (strategy counters aside).
func TestRewindSteadyState(t *testing.T) {
	const vrfs = 32
	eng := warmMachine(t, false, vrfs)
	w1 := rewindRun(t, eng)

	if w1.TraceMisses != 0 {
		t.Errorf("steady-state run recorded %d trace misses, want 0", w1.TraceMisses)
	}
	if w1.TraceHits == 0 {
		t.Error("steady-state run replayed no rounds from traces")
	}
	if w1.JITCompiles != 0 {
		t.Errorf("steady-state run lowered %d bodies; compilation belongs to the first run", w1.JITCompiles)
	}
	if w1.JITReplays == 0 {
		t.Error("steady-state run executed no compiled replays")
	}

	w2 := rewindRun(t, eng)
	if b1, b2 := statsBytes(t, w1), statsBytes(t, w2); !bytes.Equal(b1, b2) {
		t.Errorf("steady state is not a fixed point:\nrun1: %s\nrun2: %s", b1, b2)
	}

	notrace := rewindRun(t, warmMachine(t, true, vrfs))
	requireParity(t, "sobelx-rewound", w1, notrace)
}

// TestReplayAllocsEngineInvariant is the allocation regression guard for
// the replay hot loop. A rewound run on the engine allocates for the phase
// scheduler's batching and the recipe-table touch replay, never for the
// replayed body itself, so both in total and per additional round it must
// stay below the plain interpreter (whose per-round interpretation work is
// what the trace engine exists to eliminate). A replay path that allocated
// per round (a slice header, a boxed interface, a deferred mask copy) lifts
// the engine's slope past the interpreter's and fails here.
// (trace.TestProgRunDoesNotAllocate pins the closure chains themselves at
// exactly zero.)
func TestReplayAllocsEngineInvariant(t *testing.T) {
	measure := func(noTrace bool, vrfs int) float64 {
		m := warmMachine(t, noTrace, vrfs)
		return testing.AllocsPerRun(10, func() {
			m.Rewind()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 32, 64 // one thermal round per VRF
	eng, notrace := measure(false, small), measure(true, small)
	if eng > notrace {
		t.Errorf("replay allocates more than full interpretation: engine=%v notrace=%v", eng, notrace)
	}
	engStep, notraceStep := measure(false, large)-eng, measure(true, large)-notrace
	if engStep >= notraceStep {
		t.Errorf("%d more rounds cost the engine %v allocations, the interpreter %v", large-small, engStep, notraceStep)
	}
}

// TestDynamicRewindAllocs is the same guard for rounds that never replay.
// gcd's JUMP_COND body runs every round through the expansion kernels the
// decode cache already holds, so a rewound run allocates only what the
// scheduler does and no more than the NoTrace interpreter. A kernel fetched
// through the process-wide memo per round (a boxed key), or compiled per
// machine, fails here.
func TestDynamicRewindAllocs(t *testing.T) {
	measure := func(noTrace bool) float64 {
		m := warmKernel(t, "gcd", noTrace, 4)
		return testing.AllocsPerRun(5, func() {
			m.Rewind()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if eng, notrace := measure(false), measure(true); eng > notrace {
		t.Errorf("rewound gcd run allocates %v times on the engine, %v on the interpreter", eng, notrace)
	}
}
