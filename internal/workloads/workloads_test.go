package workloads

import (
	"fmt"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/gpumodel"
	"mpu/internal/machine"
)

func TestRegistryShape(t *testing.T) {
	ks := All()
	if len(ks) != 21 {
		t.Fatalf("kernel count = %d, want the paper's 21", len(ks))
	}
	counts := map[Group]int{}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.Name] {
			t.Errorf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
		counts[k.Group]++
		if k.Gen == nil || k.Ref == nil || k.Emit == nil {
			t.Errorf("%s: missing generator/reference/emitter", k.Name)
		}
		if k.GPU.Ops <= 0 || k.GPU.Bytes <= 0 {
			t.Errorf("%s: missing GPU traits", k.Name)
		}
		if k.Out < k.Inputs && k.Name != "relu" && k.Name != "abs" && k.Name != "sign" &&
			k.Name != "mac" && k.Name != "clamp" && k.Name != "threshold" &&
			k.Name != "ibert-sqrt" && k.Name != "softmax" && k.Name != "crc32" && k.Name != "gcd" {
			t.Errorf("%s: output register %d overlaps inputs 0..%d", k.Name, k.Out, k.Inputs-1)
		}
	}
	if counts[Basic] != 6 || counts[Branch] != 5 || counts[Stencil] != 4 || counts[Complex] != 6 {
		t.Fatalf("group counts = %v, want 6/5/4/6", counts)
	}
}

func TestByNameAndGroup(t *testing.T) {
	if ByName("gcd") == nil || ByName("vecadd") == nil {
		t.Fatal("ByName missed known kernels")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName invented a kernel")
	}
	if got := len(ByGroup(Stencil)); got != 4 {
		t.Fatalf("stencil group size = %d", got)
	}
	if Group(9).String() != "unknown" || Basic.String() != "basic" {
		t.Fatal("Group.String broken")
	}
}

// TestAllKernelsCorrectOnRACER is the central functional test: every kernel
// must produce reference-exact results through the NOR-only bit-serial
// datapath, including the divergent dynamic-loop kernels.
func TestAllKernelsCorrectOnRACER(t *testing.T) {
	spec := backends.RACER()
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(k, RunConfig{
				Spec:          spec,
				Mode:          machine.ModeMPU,
				TotalElements: spec.MPUs * spec.Lanes * 2, // 2 VRFs per MPU share
				Seed:          1,
				Check:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckedLanes == 0 {
				t.Fatal("no lanes verified")
			}
			if res.Seconds <= 0 || res.Joules <= 0 {
				t.Fatalf("implausible cost: %v s, %v J", res.Seconds, res.Joules)
			}
		})
	}
}

// TestKernelsCorrectOnOtherBackends spot-checks representative kernels on
// MIMDRAM and Duality Cache capability sets end to end.
func TestKernelsCorrectOnOtherBackends(t *testing.T) {
	names := []string{"vecadd", "abs", "conv1d3", "gcd", "crc32", "euclidean"}
	for _, spec := range []*backends.Spec{backends.MIMDRAM(), backends.DualityCache()} {
		for _, name := range names {
			k := ByName(name)
			res, err := Run(k, RunConfig{
				Spec:          spec,
				Mode:          machine.ModeMPU,
				TotalElements: spec.MPUs * spec.Lanes,
				Seed:          2,
				Check:         true,
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, spec.Name, err)
			}
			if res.CheckedLanes == 0 {
				t.Fatalf("%s on %s: nothing verified", name, spec.Name)
			}
		}
	}
}

// TestBaselineMatchesFunctionally: Baseline mode computes identical results —
// only the control costs differ.
func TestBaselineMatchesFunctionally(t *testing.T) {
	spec := backends.RACER()
	k := ByName("gcd")
	mpu, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeMPU, TotalElements: spec.MPUs * 64, Seed: 3, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeBaseline, TotalElements: spec.MPUs * 64, Seed: 3, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Offloads == 0 {
		t.Fatal("Baseline gcd performed no offloads")
	}
	if mpu.Stats.Offloads != 0 {
		t.Fatal("MPU gcd performed offloads")
	}
	if base.Seconds <= mpu.Seconds {
		t.Fatalf("Baseline (%.3gs) not slower than MPU (%.3gs) on a dynamic-loop kernel", base.Seconds, mpu.Seconds)
	}
}

// TestBasicKernelIsoAreaSlowdown: on control-free kernels the MPU config is
// slightly SLOWER than Baseline (capacity given up to front ends, §VIII-B).
func TestBasicKernelIsoAreaSlowdown(t *testing.T) {
	spec := backends.RACER()
	k := ByName("vecadd")
	// A chip-scale working set (448 of 512 VRFs per baseline unit): the
	// iso-area MPU configuration has 497/512 of the arrays, so each array
	// shoulders ~3% more work. MaxSimVRFs=8 keeps the functional part
	// small while the fractional overflow factor carries the timing.
	n := spec.BaselineUnits * spec.Lanes * 448
	mpu, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeMPU, TotalElements: n, Seed: 4, MaxSimVRFs: 8})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeBaseline, TotalElements: n, Seed: 4, MaxSimVRFs: 8})
	if err != nil {
		t.Fatal(err)
	}
	ratio := mpu.Seconds / base.Seconds
	if ratio < 1.005 || ratio > 1.08 {
		t.Fatalf("iso-area slowdown = %.3f, want a few percent above 1 (capacity derate)", ratio)
	}
}

// TestDCacheCapacityOverflow: a working set beyond 0.2 GB forces external
// streaming passes on Duality Cache.
func TestDCacheCapacityOverflow(t *testing.T) {
	spec := backends.DualityCache()
	k := ByName("vecadd")
	onChip := spec.MPUs * spec.VRFsPerMPU() * spec.Lanes
	res, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeMPU, TotalElements: onChip * 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow <= 1 {
		t.Fatalf("overflow = %v, want > 1 for a 4× working set", res.Overflow)
	}
	fit, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeMPU, TotalElements: onChip / 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Overflow != 1 {
		t.Fatalf("fitting working set reported overflow %v", fit.Overflow)
	}
	if res.Seconds < 4*fit.Seconds {
		t.Fatalf("overflowing run (%.3g s) not ≳4× the fitting run (%.3g s)", res.Seconds, fit.Seconds)
	}
}

func TestComputeScaleInflatesStencilBaseline(t *testing.T) {
	spec := backends.RACER()
	k := ByName("conv1d3")
	n := spec.BaselineUnits * spec.Lanes
	plain, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeBaseline, TotalElements: n, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := Run(k, RunConfig{Spec: spec, Mode: machine.ModeBaseline, TotalElements: n, Seed: 6, ComputeScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if inflated.Seconds < 3*plain.Seconds {
		t.Fatalf("Toeplitz inflation: %.3g vs %.3g s", inflated.Seconds, plain.Seconds)
	}
}

func TestGPURunProfiles(t *testing.T) {
	gpu := gpumodel.RTX4090()
	for _, k := range All() {
		res, err := GPURun(k, gpu, 1<<22)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if res.Seconds <= 0 || res.Joules <= 0 {
			t.Fatalf("%s: implausible GPU cost", k.Name)
		}
	}
	// Bitwise elementwise kernels must be memory/transfer-bound, not
	// compute-bound.
	res, _ := GPURun(ByName("vecand"), gpu, 1<<24)
	if !res.MemBound {
		t.Error("vecand not memory-bound on the GPU model")
	}
}

func TestRunConfigErrors(t *testing.T) {
	k := ByName("vecadd")
	if _, err := Run(k, RunConfig{Spec: backends.RACER(), TotalElements: 0}); err == nil {
		t.Error("zero elements accepted")
	}
}

func TestMaxSimVRFsCap(t *testing.T) {
	spec := backends.RACER()
	k := ByName("vecadd")
	res, err := Run(k, RunConfig{
		Spec: spec, Mode: machine.ModeMPU,
		TotalElements: spec.MPUs * spec.Lanes * 16,
		MaxSimVRFs:    4, Seed: 7, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimElements > 4*spec.Lanes {
		t.Fatalf("simulated %d elements despite 4-VRF cap", res.SimElements)
	}
	if res.Overflow != 4 {
		t.Fatalf("overflow = %v, want 4", res.Overflow)
	}
}

// TestCheckNamesLowestElement corrupts two output elements of a request
// whose check splits into chunks, one in each half, and requires Finish to
// name the lower one with the message a sequential check gives, at any
// worker count.
func TestCheckNamesLowestElement(t *testing.T) {
	spec := backends.SIMDRAM()
	k := ByName("vecadd")
	const share = 40000 // elements per MPU: above checkFloor
	for _, workers := range []int{1, 2} {
		cfg := RunConfig{Spec: spec, Mode: machine.ModeMPU, TotalElements: spec.MPUs * share,
			Seed: 5, Check: true, Workers: workers}
		for _, bad := range [][]int{nil, {share - 1000}, {1000, share - 1000}} {
			m, err := machine.New(MachineConfigFor(cfg))
			if err != nil {
				t.Fatal(err)
			}
			p, err := PrepareOn(m, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.simElems != share || share < checkFloor {
				t.Fatalf("simulated %d elements, want %d above the floor %d", p.simElems, share, checkFloor)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for i := len(bad) - 1; i >= 0; i-- {
				idx := bad[i]
				a := p.addrs[idx/spec.Lanes]
				out, err := m.ReadVector(0, a, k.Out)
				if err != nil {
					t.Fatal(err)
				}
				good := out[idx%spec.Lanes]
				out[idx%spec.Lanes] ^= 1 << 7
				if err := m.WriteVector(0, a, k.Out, out); err != nil {
					t.Fatal(err)
				}
				want = fmt.Sprintf("workloads: vecadd on SIMDRAM/MPU: element %d: got %#x, want %#x",
					idx, out[idx%spec.Lanes], good)
			}
			res, err := p.Finish(st)
			switch {
			case bad == nil && err != nil:
				t.Fatalf("workers %d: clean run failed its check: %v", workers, err)
			case bad == nil && res.CheckedLanes != share:
				t.Fatalf("workers %d: checked %d lanes, want %d", workers, res.CheckedLanes, share)
			case bad != nil && (err == nil || err.Error() != want):
				t.Fatalf("workers %d, corrupt %v: error %v, want %q", workers, bad, err, want)
			}
		}
	}
}
