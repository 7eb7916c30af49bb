package machine_test

// No-residue oracle for register-file recycling. Reset parks a request's
// VRFs and vrfAt hands them, recycled, to the next request — on mpud, to the
// next tenant, who may dump any register. vrf.Recycle clears only what its
// dirty bitmap names, so a writer into the word directory that fails to mark
// its register would leak the previous request's data. The oracle: after any
// run, every parked VRF must recycle to the exact bytes of vrf.New.

import (
	"bytes"
	"fmt"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/machine"
	"mpu/internal/snap"
	"mpu/internal/vrf"
	"mpu/internal/workloads"
)

func vrfBytes(v *vrf.VRF) []byte {
	w := snap.NewWriter(0)
	v.EncodeState(w)
	return w.Finish()
}

// requireNoResidue Resets m and checks that every register file it parked
// recycles to a byte-identical vrf.New. It reports how many it checked.
func requireNoResidue(t testing.TB, name string, m *machine.Machine) int {
	t.Helper()
	m.Reset()
	want := vrfBytes(vrf.New(m.Spec().Lanes))
	checked := 0
	for core, parked := range m.ParkedVRFs() {
		for i, v := range parked {
			touched := v.TouchedRegs()
			v.Recycle()
			if !bytes.Equal(vrfBytes(v), want) {
				t.Fatalf("%s: core %d parked VRF %d (dirty %v) does not recycle to vrf.New's bytes",
					name, core, i, touched)
			}
			checked++
		}
	}
	return checked
}

// Every shipped kernel, on every back end, on the engine and under NoTrace:
// run it checked, then hold the machine to the oracle.
func TestNoResidueAfterReset(t *testing.T) {
	const simVRFs = 2
	specs := append(backends.All(), backends.SIMDRAM())
	for _, spec := range specs {
		for _, noTrace := range []bool{false, true} {
			cfg := workloads.RunConfig{
				Spec: spec, Mode: machine.ModeMPU,
				TotalElements: spec.MPUs * spec.Lanes * simVRFs,
				Seed:          5, Check: true, MaxSimVRFs: simVRFs, NoTrace: noTrace,
			}
			m, err := machine.New(workloads.MachineConfigFor(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range workloads.All() {
				name := fmt.Sprintf("%s/%s/notrace=%v", k.Name, spec.Name, noTrace)
				if _, err := workloads.RunOn(m, k, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n := requireNoResidue(t, name, m); n != simVRFs {
					t.Fatalf("%s: oracle saw %d parked VRFs, want %d", name, n, simVRFs)
				}
			}
		}
	}
}

// The spare list is bounded by the chip, not by how often a machine is
// reused: Restore installs newly decoded VRFs every time and Reset parks
// them, so without the bound a long-lived pooled machine that serves
// restores would grow by a snapshot's worth of register files per request.
func TestSpareListBounded(t *testing.T) {
	spec := fuzzSpec()
	spec.VRFsPerRFH, spec.RFHsPerMPU = 1, 3
	cfg := machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: 2, Workers: 1}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, spec.Lanes)
	for i := range vals {
		vals[i] = ^uint64(i)
	}
	for mpu := 0; mpu < cfg.NumMPUs; mpu++ {
		for rfh := 0; rfh < spec.RFHsPerMPU; rfh++ {
			if err := m.WriteVector(mpu, controlpath.VRFAddr{RFH: uint8(rfh)}, 7, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	data := m.Snapshot()
	for i := 0; i < 1000; i++ {
		if err := m.Restore(data); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		for core, parked := range m.ParkedVRFs() {
			if len(parked) > spec.VRFsPerMPU() {
				t.Fatalf("iteration %d: core %d parks %d VRFs, chip has %d per MPU", i, core, len(parked), spec.VRFsPerMPU())
			}
		}
	}
	for core, parked := range m.ParkedVRFs() {
		if len(parked) != spec.VRFsPerMPU() {
			t.Fatalf("core %d parks %d VRFs after 1000 restores, want the bound %d", core, len(parked), spec.VRFsPerMPU())
		}
	}
	// Restored VRFs are all-dirty; the ones that made it onto the list must
	// still come back clean.
	requireNoResidue(t, "restored", m)
	got, err := m.ReadVector(0, controlpath.VRFAddr{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for l, x := range got {
		if x != 0 {
			t.Fatalf("lane %d of r7 reads %#x on a recycled VRF", l, x)
		}
	}
}
