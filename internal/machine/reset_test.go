// Reset/reuse tests live in the external test package: they drive the
// machine through internal/workloads (which itself imports machine), so an
// in-package test file would form an import cycle.
package machine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// statsBytes serializes through the stable encoder; tests compare raw bytes
// so any drift in any field — including the float energies — fails loudly.
func statsBytes(t *testing.T, st *machine.Stats) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runKernelOn executes the named workload kernel on m (which must match
// spec/mode) and returns the stable stats bytes.
func runKernelOn(t *testing.T, m *machine.Machine, spec *backends.Spec, name string, elems int, seed int64) []byte {
	t.Helper()
	k := workloads.ByName(name)
	if k == nil {
		t.Fatalf("unknown kernel %q", name)
	}
	res, err := workloads.RunOn(m, k, workloads.RunConfig{
		Spec: spec, Mode: machine.ModeMPU, TotalElements: elems, Seed: seed, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return statsBytes(t, res.Stats)
}

// TestResetReuseMatchesFresh pins the pool-reuse contract's order-sensitive
// leg (TestMachineMatrix's reset row runs every kernel on a machine another
// used first, on the engine): a wide kernel first (sobelx and manhattan
// write the most registers of the replayable suite), then vecadd on the
// same machine, which recycles the wide kernel's register files and itself
// touches three registers. Stats and every register of every mapped VRF
// must equal vecadd's on a fresh machine, on the engine and under NoTrace.
func TestResetReuseMatchesFresh(t *testing.T) {
	t.Run("after-wide-kernel", func(t *testing.T) {
		const simVRFs = 4
		for _, spec := range []*backends.Spec{backends.RACER(), backends.SIMDRAM()} {
			for _, noTrace := range []bool{false, true} {
				cfg := workloads.RunConfig{
					Spec: spec, Mode: machine.ModeMPU, TotalElements: spec.MPUs * spec.Lanes * simVRFs,
					Seed: 3, Check: true, MaxSimVRFs: simVRFs, NoTrace: noTrace,
				}
				run := func(m *machine.Machine, kernel string) []byte {
					res, err := workloads.RunOn(m, workloads.ByName(kernel), cfg)
					if err != nil {
						t.Fatal(err)
					}
					return statsBytes(t, res.Stats)
				}
				newMachine := func() *machine.Machine {
					m, err := machine.New(workloads.MachineConfigFor(cfg))
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				for _, wide := range []string{"sobelx", "manhattan"} {
					name := fmt.Sprintf("%s/%s/notrace=%v", wide, spec.Name, noTrace)
					warm, fresh := newMachine(), newMachine()
					run(warm, wide)
					got, want := run(warm, "vecadd"), run(fresh, "vecadd")
					if !bytes.Equal(got, want) {
						t.Fatalf("%s then vecadd: stats diverge from a fresh machine's\nwarm:  %s\nfresh: %s", name, got, want)
					}
					_, addrs, err := workloads.BuildProgram(workloads.ByName("vecadd"), spec, simVRFs)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range addrs {
						for reg := 0; reg < isa.NumRegs; reg++ {
							g, err := warm.ReadVector(0, a, reg)
							if err != nil {
								t.Fatal(err)
							}
							w, err := fresh.ReadVector(0, a, reg)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(g, w) {
								t.Fatalf("%s then vecadd: rfh%d.vrf%d r%d differs from a fresh machine's", name, a.RFH, a.VRF, reg)
							}
						}
					}
				}
			}
		}
	})
}

// TestResetClearsArchitecturalState pins the functional half: a register
// written before Reset must read back zero afterwards, like a fresh machine.
func TestResetClearsArchitecturalState(t *testing.T) {
	spec := backends.RACER()
	m, err := machine.New(machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := controlpath.VRFAddr{RFH: 0, VRF: 0}
	vals := make([]uint64, spec.Lanes)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	if err := m.WriteVector(0, a, 0, vals); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	got, err := m.ReadVector(0, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("lane %d: register survived Reset with %d", i, v)
		}
	}
}

// TestRunStatsNotAliased pins the ownership Run documents: the Stats it
// returns is the caller's, so reusing the machine for another program never
// writes it again.
func TestRunStatsNotAliased(t *testing.T) {
	m, err := machine.New(machine.Config{Spec: backends.RACER(), Mode: machine.ModeMPU})
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string) *machine.Stats {
		t.Helper()
		prog, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st1 := run("COMPUTE rfh0 vrf0\nADD r0 r1 r2\nCOMPUTE_DONE\n")
	want := statsBytes(t, st1)
	st2 := run("NOP\nNOP\n")
	if st1 == st2 {
		t.Error("two Runs returned the same *Stats")
	}
	if got := statsBytes(t, st1); !bytes.Equal(got, want) {
		t.Errorf("the first run's Stats changed under a later run:\n was: %s\n now: %s", want, got)
	}
	if bytes.Equal(statsBytes(t, st2), want) {
		t.Error("the two programs were meant to produce different Stats")
	}
}
