package machine_test

// Batched vector I/O: WriteVectors and ReadVectors split a transfer's VRFs
// across the worker budget, and that split must be invisible — the same
// registers, snapshot bytes and statistics as one WriteVector or ReadVector
// per address, the same errors, and no state written when they fail.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

const ioVRFs = 10 // VRFs the parity kernel activates

// ioMachine returns a machine whose spare list holds register files a wider
// kernel dirtied, then Reset and loaded with prog.
func ioMachine(t *testing.T, spec *backends.Spec, workers int, prog isa.Program) *machine.Machine {
	t.Helper()
	cfg := workloads.RunConfig{Spec: spec, Mode: machine.ModeMPU, Workers: workers, Seed: 3,
		TotalElements: spec.MPUs * spec.Lanes * (ioVRFs + 4)}
	m, err := machine.New(workloads.MachineConfigFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.RunOn(m, workloads.ByName("sobelx"), cfg); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if len(m.ParkedVRFs()[0]) == 0 {
		t.Fatal("no spare register files to recycle")
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// ioRegs reads every register of every address, one ReadVector each.
func ioRegs(t *testing.T, m *machine.Machine, addrs []controlpath.VRFAddr) [][]uint64 {
	t.Helper()
	var out [][]uint64
	for _, a := range addrs {
		for r := 0; r < isa.NumRegs; r++ {
			v, err := m.ReadVector(0, a, r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

func TestVectorIOParity(t *testing.T) {
	t.Cleanup(machine.SetIOFloor(1))
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	k := workloads.ByName("vecadd")
	for _, spec := range []*backends.Spec{backends.RACER(), backends.MIMDRAM(), backends.DualityCache(), backends.SIMDRAM()} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", spec.Name, workers), func(t *testing.T) {
				prog, addrs, err := workloads.BuildProgram(k, spec, ioVRFs)
				if err != nil {
					t.Fatal(err)
				}
				batch := ioMachine(t, spec, workers, prog)
				loop := ioMachine(t, spec, workers, prog)
				// A machine that never parked a register file: recycled
				// spares must leave what new ones hold.
				fresh, err := machine.New(machine.Config{Spec: spec, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.LoadAll(prog); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(workers)))
				lanes := spec.Lanes
				for reg := 0; reg < k.Inputs; reg++ {
					vals := make([]uint64, ioVRFs*lanes-lanes/2-3) // a short last slice
					for i := range vals {
						vals[i] = rng.Uint64() >> 40
					}
					if err := batch.WriteVectors(0, addrs, reg, vals); err != nil {
						t.Fatal(err)
					}
					for i, a := range addrs {
						for _, m := range []*machine.Machine{loop, fresh} {
							if err := m.WriteVector(0, a, reg, vals[i*lanes:min((i+1)*lanes, len(vals))]); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, ref := range []*machine.Machine{loop, fresh} {
					if !slices.EqualFunc(ioRegs(t, batch, addrs), ioRegs(t, ref, addrs), slices.Equal) {
						t.Fatal("registers differ after WriteVectors")
					}
					if !bytes.Equal(batch.Snapshot(), ref.Snapshot()) {
						t.Fatal("snapshot bytes differ after WriteVectors")
					}
				}
				got, err := batch.Run()
				if err != nil {
					t.Fatal(err)
				}
				want, err := loop.Run()
				if err != nil {
					t.Fatal(err)
				}
				if g, w := statsBytes(t, got), statsBytes(t, want); !bytes.Equal(g, w) {
					t.Fatalf("stats differ\nbatched:  %s\nper-VRF: %s", g, w)
				}
				if !bytes.Equal(batch.Snapshot(), loop.Snapshot()) {
					t.Fatal("snapshot bytes differ after the run")
				}
				for reg := 0; reg < isa.NumRegs; reg++ {
					all, err := batch.ReadVectors(0, addrs, reg)
					if err != nil {
						t.Fatal(err)
					}
					var each []uint64
					for _, a := range addrs {
						v, err := loop.ReadVector(0, a, reg)
						if err != nil {
							t.Fatal(err)
						}
						each = append(each, v...)
					}
					if !slices.Equal(all, each) {
						t.Fatalf("register %d: ReadVectors differs from one ReadVector per address", reg)
					}
				}
				vectorIOErrors(t, batch, addrs)
			})
		}
	}
}

// vectorIOErrors checks that every rejected transfer returns the error the
// one-address calls have always returned and writes nothing.
func vectorIOErrors(t *testing.T, m *machine.Machine, addrs []controlpath.VRFAddr) {
	t.Helper()
	spec := m.Spec()
	bad := controlpath.VRFAddr{RFH: uint8(spec.RFHsPerMPU), VRF: 0}
	badVRF := controlpath.VRFAddr{RFH: 0, VRF: uint8(spec.VRFsPerRFH)}
	fresh := controlpath.VRFAddr{RFH: uint8(spec.RFHsPerMPU - 1), VRF: uint8(spec.VRFsPerRFH - 1)}
	with := func(extra ...controlpath.VRFAddr) []controlpath.VRFAddr {
		return append(append(slices.Clone(addrs[:3]), extra...), addrs[3:]...)
	}
	cases := []struct {
		name  string
		mpu   int
		addrs []controlpath.VRFAddr
		reg   int
		vals  int
		want  string
	}{
		{"mpu", 1, addrs, 0, 1, "machine: MPU 1 out of range"},
		{"negative mpu", -1, addrs, 0, 1, "machine: MPU -1 out of range"},
		{"rfh", 0, with(fresh, bad), 0, 1, fmt.Sprintf("machine: rfh%d out of range [0,%d) (capacity fault)", spec.RFHsPerMPU, spec.RFHsPerMPU)},
		{"vrf", 0, with(fresh, badVRF), 0, 1, fmt.Sprintf("machine: vrf%d out of range [0,%d) (capacity fault)", spec.VRFsPerRFH, spec.VRFsPerRFH)},
		{"register", 0, with(fresh), isa.NumRegs, 1, "machine: register 64 out of range"},
		{"negative register", 0, with(fresh), -1, 1, "machine: register -1 out of range"},
	}
	for _, tc := range cases {
		before := m.Snapshot()
		vals := make([]uint64, tc.vals)
		err := m.WriteVectors(tc.mpu, tc.addrs, tc.reg, vals)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: WriteVectors error %v, want %q", tc.name, err, tc.want)
		}
		if _, err := m.ReadVectors(tc.mpu, tc.addrs, tc.reg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: ReadVectors error %v, want %q", tc.name, err, tc.want)
		}
		if !bytes.Equal(before, m.Snapshot()) {
			t.Errorf("%s: a rejected transfer changed the snapshot", tc.name)
		}
	}
	// The one-address calls return the same errors for the same arguments.
	if err := m.WriteVector(1, addrs[0], 0, nil); err == nil || err.Error() != cases[0].want {
		t.Errorf("WriteVector on MPU 1: %v", err)
	}
	if _, err := m.ReadVector(0, bad, 0); err == nil || err.Error() != cases[2].want {
		t.Errorf("ReadVector at %v: %v", bad, err)
	}
	// Rejections only the batched form can meet: a repeated address, and
	// more values than the addresses hold.
	before := m.Snapshot()
	if err := m.WriteVectors(0, with(fresh, addrs[5]), 0, nil); err == nil {
		t.Error("WriteVectors accepted an address listed twice")
	}
	if err := m.WriteVectors(0, with(fresh), 0, make([]uint64, (len(addrs)+1)*spec.Lanes+1)); err == nil {
		t.Error("WriteVectors accepted more values than its VRFs hold")
	}
	if err := m.WriteVector(0, fresh, 0, make([]uint64, spec.Lanes+1)); err == nil {
		t.Error("WriteVector accepted more values than a VRF holds")
	}
	if !bytes.Equal(before, m.Snapshot()) {
		t.Error("a rejected transfer changed the snapshot")
	}
}

// TestReadMapsNothing pins that reading an address no program, write or
// restore touched returns zeros and maps no register file: the snapshot and
// the spare list stay as they were.
func TestReadMapsNothing(t *testing.T) {
	spec := backends.RACER()
	for _, used := range []bool{false, true} {
		m, err := machine.New(machine.Config{Spec: spec, Mode: machine.ModeMPU})
		if err != nil {
			t.Fatal(err)
		}
		if used {
			runKernelOn(t, m, spec, "vecadd", spec.MPUs*spec.Lanes*4, 1)
			m.Reset()
		}
		snap := m.Snapshot()
		spares := slices.Clone(m.ParkedVRFs()[0])
		a := controlpath.VRFAddr{RFH: 3, VRF: 7}
		v, err := m.ReadVector(0, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != spec.Lanes || slices.ContainsFunc(v, func(x uint64) bool { return x != 0 }) {
			t.Fatalf("used=%v: unmapped read returned %d lanes, not all zero", used, len(v))
		}
		all, err := m.ReadVectors(0, []controlpath.VRFAddr{a, {RFH: 0, VRF: 0}, a}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 3*spec.Lanes || slices.ContainsFunc(all, func(x uint64) bool { return x != 0 }) {
			t.Fatalf("used=%v: unmapped ReadVectors returned %d lanes, not all zero", used, len(all))
		}
		if got := m.Snapshot(); !bytes.Equal(got, snap) {
			t.Fatalf("used=%v: a read grew the snapshot from %d to %d bytes", used, len(snap), len(got))
		}
		if got := m.ParkedVRFs()[0]; !slices.Equal(got, spares) {
			t.Fatalf("used=%v: a read took a spare register file (%d → %d parked)", used, len(spares), len(got))
		}
	}
}

// BenchmarkWriteVectors times one register's input scatter over n VRFs, the
// way PrepareOn writes it after a Reset (each VRF recycled from the spare
// list), on the caller ("inline") and split in two ("split", the floor
// lowered to 1): where split starts to win is where hostIOTiles belongs.
func BenchmarkWriteVectors(b *testing.B) {
	for _, spec := range []*backends.Spec{backends.RACER(), backends.SIMDRAM()} {
		tiles := spec.Lanes / 64
		for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
			addrs := make([]controlpath.VRFAddr, n)
			for v := range addrs {
				addrs[v] = controlpath.VRFAddr{RFH: uint8(v % spec.RFHsPerMPU), VRF: uint8(v / spec.RFHsPerMPU)}
			}
			vals := make([]uint64, n*spec.Lanes)
			for i := range vals {
				vals[i] = uint64(i) * 0x9e3779b97f4a7c15
			}
			for _, split := range []bool{false, true} {
				name, workers := "inline", 1
				if split {
					name, workers = "split", 2
				}
				b.Run(fmt.Sprintf("%s/tiles=%d/%s", spec.Name, n*tiles, name), func(b *testing.B) {
					defer machine.SetIOFloor(1)()
					m, err := machine.New(machine.Config{Spec: spec, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(vals) * 8))
					for i := 0; i < b.N; i++ {
						m.Reset()
						if err := m.WriteVectors(0, addrs, 0, vals); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
