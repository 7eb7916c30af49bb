package apps_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// programDigests is the golden file TestProgramDigests compares against:
// one line per configuration, its label and the SHA-256 over the SHA-256 of
// every MPU program's isa.EncodeProgram bytes in MPU order ("error" when
// the configuration is rejected).
const programDigests = "testdata/program_digests.txt"

// digestSpecs is the four back ends: the paper's three plus SIMDRAM.
func digestSpecs(t *testing.T) []*backends.Spec {
	t.Helper()
	sim, err := backends.ByName("simdram")
	if err != nil {
		t.Fatal(err)
	}
	return append(backends.All(), sim)
}

// scaleChip is the RACER die grown to the 512 MPUs the scaling study runs on.
func scaleChip() *backends.Spec {
	s := backends.RACER()
	s.Name = "RACER-512"
	s.MPUs = 512
	return s
}

func digest(progs []isa.Program, err error) string {
	if err != nil {
		return "error"
	}
	h := sha256.New()
	for _, p := range progs {
		sum := sha256.Sum256(isa.EncodeProgram(p))
		h.Write(sum[:])
	}
	return fmt.Sprintf("%d:%x", len(progs), h.Sum(nil))
}

// digestTable renders every pinned configuration's line.
func digestTable(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	line := func(label string, progs []isa.Program, err error) {
		fmt.Fprintf(&sb, "%s %s\n", label, digest(progs, err))
	}
	ed := func(spec *backends.Spec, mpus, vrfs, steps int) {
		progs, err := apps.BuildEditDistancePrograms(apps.EditDistanceConfig{
			Spec: spec, Mode: machine.ModeMPU, MPUs: mpus, VRFs: vrfs, Steps: steps})
		line(fmt.Sprintf("editdistance/%s/mpus=%d/vrfs=%d/steps=%d", spec.Name, mpus, vrfs, steps), progs, err)
	}
	for _, spec := range digestSpecs(t) {
		for _, mpus := range []int{2, 4, 8} {
			for _, vrfs := range []int{1, 4, spec.VRFsPerMPU()} {
				for _, steps := range []int{1, 0} {
					ed(spec, mpus, vrfs, steps)
				}
			}
		}
		for _, workers := range []int{1, 3, spec.VRFsPerRFH - 1} {
			for _, vrfs := range []int{1, 2} {
				for _, groups := range []int{1, 2} {
					progs, err := apps.BuildLLMEncodePrograms(apps.LLMEncodeConfig{
						Spec: spec, Mode: machine.ModeMPU, Workers: workers, VRFs: vrfs, Groups: groups})
					line(fmt.Sprintf("llmencode/%s/workers=%d/vrfs=%d/groups=%d", spec.Name, workers, vrfs, groups), progs, err)
				}
			}
		}
		for _, vrfs := range []int{0, 4, spec.VRFsPerMPU()} {
			progs, err := apps.BuildBlackScholesPrograms(apps.BlackScholesConfig{
				Spec: spec, Mode: machine.ModeMPU, Options: vrfs * spec.Lanes})
			line(fmt.Sprintf("blackscholes/%s/vrfs=%d", spec.Name, vrfs), progs, err)
		}
		for _, k := range workloads.All() {
			for _, vrfs := range []int{1, 8} {
				p, _, err := workloads.BuildProgram(k, spec, vrfs)
				line(fmt.Sprintf("kernel/%s/%s/vrfs=%d", spec.Name, k.Name, vrfs), []isa.Program{p}, err)
			}
		}
	}
	// The scaling study's rings on its 512-MPU chip, at the shape it runs
	// (one VRF, two steps), and the VRF and step axes at its smallest ring.
	// The composition check costs 0.3–3 s per ring past 16 MPUs, and a
	// 512-position full rotation at 512 VRFs more memory than a test may use.
	chip := scaleChip()
	for mpus := 16; mpus <= chip.MPUs; mpus *= 2 {
		ed(chip, mpus, 1, 2)
	}
	for _, vrfs := range []int{1, 4, chip.VRFsPerMPU()} {
		for _, steps := range []int{1, 0} {
			ed(chip, 16, vrfs, steps)
		}
	}
	return sb.String()
}

// TestProgramDigests pins every MPU program the apps and the kernel
// catalogue emit, byte for byte, across ring sizes, VRF counts, step counts,
// worker counts and groups on every back end.
func TestProgramDigests(t *testing.T) {
	want, err := os.ReadFile(programDigests)
	if err != nil {
		t.Fatal(err)
	}
	got := digestTable(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d digest lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("got  %s\nwant %s", gl[i], wl[i])
		}
	}
}
