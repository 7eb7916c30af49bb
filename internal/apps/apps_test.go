package apps

import (
	"testing"

	"mpu/internal/backends"
	"mpu/internal/ezpim"
	"mpu/internal/machine"
)

func TestFixedPointHelpersAgainstRefs(t *testing.T) {
	// The emit/ref pairing is checked end to end by the app tests; here we
	// sanity-check the references themselves.
	if refExpFx(0) != Q {
		t.Errorf("expFx(0) = %d, want %d", refExpFx(0), Q)
	}
	if got := refExpFx(Q); got < 2*Q || got > 3*Q { // e ≈ 2.67 under the cubic
		t.Errorf("expFx(1.0) = %d/%d", got, Q)
	}
	if refLn1pFx(0) != 0 {
		t.Error("ln1p(0) != 0")
	}
	if got := refLn1pFx(Q / 4); got < 14000 || got > 15000 { // ln(1.25) ≈ 0.223
		t.Errorf("ln1p(0.25) = %d/%d", got, Q)
	}
	if ezpim.RefISqrt(0) != 0 || ezpim.RefISqrt(1) != 1 || ezpim.RefISqrt(15) != 3 || ezpim.RefISqrt(16) != 4 {
		t.Error("isqrt wrong")
	}
	if got := refSqrtFx(4 * Q); got != 2*Q {
		t.Errorf("sqrtFx(4.0) = %d, want %d", got, 2*Q)
	}
	if got := refLogisticCDF(0); got < Q/2-200 || got > Q/2+200 {
		t.Errorf("N(0) = %d/%d, want ≈0.5", got, Q)
	}
	if lo, hi := refLogisticCDF(0), refLogisticCDF(Q); hi <= lo {
		t.Error("CDF not increasing")
	}
	if refAbsDiff(5, 9) != 4 || refAbsDiff(9, 5) != 4 {
		t.Error("absDiff wrong")
	}
}

func TestBlackScholesEndToEnd(t *testing.T) {
	spec := backends.RACER()
	res, err := RunBlackScholes(BlackScholesConfig{
		Spec: spec, Mode: machine.ModeMPU, Options: spec.Lanes * 2, Seed: 11, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked == 0 {
		t.Fatal("no options verified")
	}
	if res.MPUs != 2 {
		t.Fatalf("MPUs = %d, want 2 (Table IV)", res.MPUs)
	}
	if res.Stats.Sends != 1 {
		t.Fatalf("gather sends = %d, want 1", res.Stats.Sends)
	}
	if res.EzpimLines >= res.AsmLines {
		t.Fatalf("ezpim lines (%d) not below assembly (%d)", res.EzpimLines, res.AsmLines)
	}
}

func TestEditDistanceEndToEnd(t *testing.T) {
	spec := backends.RACER()
	res, err := RunEditDistance(EditDistanceConfig{
		Spec: spec, Mode: machine.ModeMPU, MPUs: 4, VRFs: 2, Seed: 13, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 4*2*spec.Lanes {
		t.Fatalf("checked %d lanes", res.Checked)
	}
	if res.Stats.Sends != uint64(4*4) { // one send per MPU per systolic step
		t.Fatalf("sends = %d, want 16", res.Stats.Sends)
	}
	if res.Stats.InterMPUCycles == 0 {
		t.Fatal("no inter-MPU communication recorded")
	}
}

func TestEditDistanceRingValidation(t *testing.T) {
	spec := backends.RACER()
	if _, err := RunEditDistance(EditDistanceConfig{Spec: spec, MPUs: 3}); err == nil {
		t.Error("odd ring size accepted")
	}
	if _, err := RunEditDistance(EditDistanceConfig{Spec: spec, MPUs: 9999}); err == nil {
		t.Error("oversized ring accepted")
	}
}

// TestConfigErrors: a configuration the apps cannot run is an error, not a
// panic.
func TestConfigErrors(t *testing.T) {
	spec := backends.RACER()
	err2 := func(_ any, err error) error { return err }
	cases := []struct {
		name string
		err  error
	}{
		{"editdistance nil spec", err2(RunEditDistance(EditDistanceConfig{}))},
		{"editdistance negative vrfs", err2(RunEditDistance(EditDistanceConfig{Spec: spec, VRFs: -1}))},
		{"editdistance negative steps", err2(RunEditDistance(EditDistanceConfig{Spec: spec, Steps: -1}))},
		{"editdistance negative ring", err2(RunEditDistance(EditDistanceConfig{Spec: spec, MPUs: -2}))},
		{"editdistance build negative vrfs", err2(BuildEditDistancePrograms(EditDistanceConfig{Spec: spec, VRFs: -4}))},
		{"llmencode nil spec", err2(RunLLMEncode(LLMEncodeConfig{}))},
		{"llmencode negative vrfs", err2(RunLLMEncode(LLMEncodeConfig{Spec: spec, VRFs: -1}))},
		{"llmencode negative workers", err2(RunLLMEncode(LLMEncodeConfig{Spec: spec, Workers: -1}))},
		{"llmencode negative groups", err2(RunLLMEncode(LLMEncodeConfig{Spec: spec, Groups: -1}))},
		{"llmencode build negative workers", err2(BuildLLMEncodePrograms(LLMEncodeConfig{Spec: spec, Workers: -3}))},
		{"llmencode build negative vrfs", err2(BuildLLMEncodePrograms(LLMEncodeConfig{Spec: spec, VRFs: -2}))},
		{"llmencode build nil spec", err2(BuildLLMEncodePrograms(LLMEncodeConfig{}))},
		{"blackscholes nil spec", err2(RunBlackScholes(BlackScholesConfig{}))},
		{"blackscholes build nil spec", err2(BuildBlackScholesPrograms(BlackScholesConfig{}))},
		{"blackscholes oversized batch", err2(RunBlackScholes(BlackScholesConfig{Spec: spec, Options: (spec.VRFsPerMPU() + 1) * spec.Lanes}))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLLMEncodeEndToEnd(t *testing.T) {
	spec := backends.RACER()
	res, err := RunLLMEncode(LLMEncodeConfig{
		Spec: spec, Mode: machine.ModeMPU, Workers: 3, VRFs: 2, Seed: 17, Check: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MPUs != 4 {
		t.Fatalf("MPUs = %d", res.MPUs)
	}
	wantTokens := 4 * 2 * spec.Lanes
	if res.Checked != wantTokens {
		t.Fatalf("checked %d tokens, want %d", res.Checked, wantTokens)
	}
	// Broadcast+scatter to 3 workers and 3 gathers = 6 send blocks.
	if res.Stats.Sends != 6 {
		t.Fatalf("sends = %d, want 6", res.Stats.Sends)
	}
}

func TestAppsOnMIMDRAM(t *testing.T) {
	spec := backends.MIMDRAM()
	if _, err := RunBlackScholes(BlackScholesConfig{Spec: spec, Mode: machine.ModeMPU, Options: spec.Lanes, Seed: 3, Check: true}); err != nil {
		t.Fatalf("blackscholes: %v", err)
	}
	if _, err := RunEditDistance(EditDistanceConfig{Spec: spec, Mode: machine.ModeMPU, MPUs: 2, VRFs: 1, Seed: 3, Check: true}); err != nil {
		t.Fatalf("editdistance: %v", err)
	}
	if _, err := RunLLMEncode(LLMEncodeConfig{Spec: spec, Mode: machine.ModeMPU, Workers: 1, VRFs: 1, Seed: 3, Check: true}); err != nil {
		t.Fatalf("llmencode: %v", err)
	}
}

// TestBaselineAppsSlower: Baseline pays CPU coordination for every systolic
// transfer, which is the EditDistance story of Fig. 15.
func TestBaselineAppsSlower(t *testing.T) {
	spec := backends.RACER()
	mpu, err := RunEditDistance(EditDistanceConfig{Spec: spec, Mode: machine.ModeMPU, MPUs: 4, VRFs: 1, Seed: 5, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunEditDistance(EditDistanceConfig{Spec: spec, Mode: machine.ModeBaseline, MPUs: 4, VRFs: 1, Seed: 5, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Seconds <= mpu.Seconds {
		t.Fatalf("Baseline EditDistance (%.3gs) not slower than MPU (%.3gs)", base.Seconds, mpu.Seconds)
	}
	// Fig. 15: Baseline EditDistance is dominated by off-chip time.
	_, _, off := base.Breakdown()
	if off < 0.5 {
		t.Fatalf("Baseline off-chip share = %.2f, want the dominant component", off)
	}
	if _, _, offMPU := mpu.Breakdown(); offMPU != 0 {
		t.Fatalf("MPU mode shows off-chip time %.2f", offMPU)
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	spec := backends.RACER()
	res, err := RunLLMEncode(LLMEncodeConfig{Spec: spec, Mode: machine.ModeMPU, Workers: 1, VRFs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, n, o := res.Breakdown()
	if sum := c + n + o; sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if c <= 0 || n <= 0 {
		t.Fatalf("compute %.2f / interMPU %.2f should both be positive", c, n)
	}
}
