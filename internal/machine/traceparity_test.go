package machine_test

// Trace-engine parity difftest: the compile-once/replay-many engine may not
// be visible in any reported number. Each kernel and application runs twice
// — on the engine (the default: record, lower, replay) and under NoTrace
// (pure interpreter) — on every back end in both modes, and the two Stats
// must match byte for byte, engine-strategy counters aside.

import (
	"fmt"
	"reflect"
	"testing"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// parityVRFs simulates two VRFs per RFH so that ActiveVRFsOverride 1 forces
// at least two scheduling rounds on every back end — round one records the
// trace, round two replays it.
const parityVRFs = 16

// stripTrace clears the counters that describe simulator execution strategy
// rather than modeled hardware; everything else must match exactly.
func stripTrace(st *machine.Stats) machine.Stats {
	c := *st
	c.TraceHits, c.TraceMisses, c.TraceFallbacks = 0, 0, 0
	c.JITCompiles, c.JITReplays = 0, 0
	return c
}

func requireParity(t *testing.T, name string, eng, notrace *machine.Stats) {
	t.Helper()
	a, b := stripTrace(eng), stripTrace(notrace)
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

// TestTraceParity runs its matrix through a decode table that empties itself
// on every insert: no machine finds another's entry, and no result may move.
func TestTraceParity(t *testing.T) {
	defer machine.SetDecodeBudgets(1, machine.DecodeBudget)()
	flushes := machine.DecodeTableStats().Flushes
	var totalHits, totalJITReplays uint64
	for _, spec := range backends.All() {
		for _, mode := range []machine.Mode{machine.ModeMPU, machine.ModeBaseline} {
			for _, k := range workloads.All() {
				name := fmt.Sprintf("%s/%s/%s", k.Name, spec.Name, mode)
				run := func(noTrace bool) *machine.Stats {
					res, err := workloads.Run(k, workloads.RunConfig{
						Spec:               spec,
						Mode:               mode,
						TotalElements:      spec.BaselineUnits * spec.Lanes * parityVRFs,
						Seed:               1,
						MaxSimVRFs:         parityVRFs,
						ActiveVRFsOverride: 1,
						NoTrace:            noTrace,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res.Stats
				}
				eng, notrace := run(false), run(true)
				requireParity(t, name, eng, notrace)
				totalHits += eng.TraceHits
				totalJITReplays += eng.JITReplays

				// Pin the fallback path: gcd's dynamic while loop (JUMP_COND)
				// must never replay from a trace.
				if k.Name == "gcd" {
					if eng.TraceHits != 0 {
						t.Errorf("%s: dynamic-control-flow body replayed %d rounds from a trace", name, eng.TraceHits)
					}
					if eng.TraceFallbacks == 0 {
						t.Errorf("%s: dynamic-control-flow body reported no fallback rounds", name)
					}
					if eng.JITCompiles != 0 {
						t.Errorf("%s: dynamic-control-flow body compiled %d JIT progs", name, eng.JITCompiles)
					}
				}
			}
		}
	}
	if totalHits == 0 {
		t.Error("no kernel round was replayed from a trace — the engine never engaged")
	}
	if totalJITReplays == 0 {
		t.Error("no kernel round ran a JIT'd closure chain — the JIT never engaged")
	}
	if machine.DecodeTableStats().Flushes == flushes {
		t.Error("the decode table was never emptied — the budget never engaged")
	}
}

func TestTraceParityApps(t *testing.T) {
	type appRun struct {
		name string
		run  func(spec *backends.Spec, mode machine.Mode, noTrace bool) (*apps.Result, error)
	}
	cases := []appRun{
		{"LLMEncode", func(spec *backends.Spec, mode machine.Mode, noTrace bool) (*apps.Result, error) {
			return apps.RunLLMEncode(apps.LLMEncodeConfig{Spec: spec, Mode: mode, Seed: 1, NoTrace: noTrace})
		}},
		{"BlackScholes", func(spec *backends.Spec, mode machine.Mode, noTrace bool) (*apps.Result, error) {
			return apps.RunBlackScholes(apps.BlackScholesConfig{Spec: spec, Mode: mode, Seed: 1, NoTrace: noTrace})
		}},
		{"EditDistance", func(spec *backends.Spec, mode machine.Mode, noTrace bool) (*apps.Result, error) {
			return apps.RunEditDistance(apps.EditDistanceConfig{Spec: spec, Mode: mode, Seed: 1, NoTrace: noTrace})
		}},
	}
	for _, spec := range backends.All() {
		for _, mode := range []machine.Mode{machine.ModeMPU, machine.ModeBaseline} {
			for _, c := range cases {
				name := fmt.Sprintf("%s/%s/%s", c.name, spec.Name, mode)
				var st [2]*machine.Stats
				for i, noTrace := range []bool{false, true} {
					r, err := c.run(spec, mode, noTrace)
					if err != nil {
						t.Fatalf("%s (notrace=%v): %v", name, noTrace, err)
					}
					st[i] = r.Stats
				}
				requireParity(t, name, st[0], st[1])
			}
		}
	}
}
