package exp

import (
	"fmt"
	"strconv"
	"strings"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/sweep"
)

// The MPU-count scaling study: how the two communicating applications
// (the editdistance systolic ring and the llmencode coordinator+worker
// pipeline) scale from 2 MPUs to the full 512-MPU chip. Per-MPU work is
// pinned (a fixed number of systolic steps; a fixed batch per pipeline
// participant), so total work grows linearly with the MPU count and ideal
// scaling is a flat makespan — throughput rising linearly and energy per
// work unit staying constant.

// Scaling-cell shape: one VRF per MPU keeps the 512-MPU cells tractable,
// two systolic steps pin the ring's per-MPU work, and a pipeline group is
// the paper's coordinator + 3 workers (a lone coordinator + 1 worker at
// the 2-MPU point).
const (
	scaleEDSteps  = 2
	scaleVRFs     = 1
	scaleLLMGroup = 4 // participants per llmencode group above 2 MPUs
)

// scaleSpec returns the sweep's chip: RACER grown to a full 512-MPU die so
// the count axis reaches the paper's baseline-unit budget (RACER's iso-area
// configuration stops at 497).
func scaleSpec() *backends.Spec {
	s := backends.RACER()
	s.Name = "RACER-512"
	s.MPUs = 512
	s.CapacityGB = float64(512*s.MemPerMPUMB) / 1024
	return s
}

// scaleCounts returns the doubling MPU-count axis 2, 4, …, capped by the
// Options.Scale divisor (the full axis tops out at 512).
func scaleCounts(scale int) []int {
	max := 512 / scale
	if max < 8 {
		max = 8
	}
	var counts []int
	for n := 2; n <= max; n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// ScaleRow is one application × MPU-count cell of the scaling study.
type ScaleRow struct {
	App     string
	MPUs    int
	Seconds float64
	Joules  float64

	// Units counts the application's work items in the cell: chunk-query
	// scorings for editdistance, encoded tokens for llmencode.
	Units           int
	Throughput      float64 // units per simulated second
	Speedup         float64 // throughput vs the 2-MPU row of the same app
	EnergyPerUnitPJ float64
}

// Scale sweeps the editdistance ring and the llmencode pipeline over the
// MPU-count axis on the 512-MPU RACER chip in MPU mode. Cells fan out
// across Options.Workers sweep workers, and each cell's machine runs its
// cores on the per-cell scheduler budget (Options.MachineWorkers); rows are
// byte-identical at any worker count.
func Scale(opts Options) ([]ScaleRow, error) {
	opts = opts.norm()
	spec := scaleSpec()
	counts := scaleCounts(opts.Scale)
	names := []string{"EditDistance", "LLMEncode"}
	mw := opts.machineWorkers()
	rows, err := sweep.Map(opts.Workers, len(names)*len(counts), func(i int) (ScaleRow, error) {
		name, n := names[i/len(counts)], counts[i%len(counts)]
		var (
			res   *apps.Result
			units int
			err   error
		)
		switch name {
		case "EditDistance":
			res, err = apps.RunEditDistance(apps.EditDistanceConfig{
				Spec: spec, Mode: machine.ModeMPU, MPUs: n, VRFs: scaleVRFs,
				Steps: scaleEDSteps, Seed: opts.Seed, NoTrace: opts.NoTrace,
				MachineWorkers: mw,
			})
			units = n * scaleVRFs * spec.Lanes * scaleEDSteps
		case "LLMEncode":
			// Every participant (coordinator included) encodes one batch of
			// VRFs×lanes tokens, so tokens = MPUs × VRFs × lanes.
			workers, groups := scaleLLMGroup-1, n/scaleLLMGroup
			if n < scaleLLMGroup {
				workers, groups = n-1, 1
			}
			res, err = apps.RunLLMEncode(apps.LLMEncodeConfig{
				Spec: spec, Mode: machine.ModeMPU, Workers: workers, Groups: groups,
				VRFs: scaleVRFs, Seed: opts.Seed, NoTrace: opts.NoTrace,
				MachineWorkers: mw,
			})
			units = n * scaleVRFs * spec.Lanes
		}
		if err != nil {
			return ScaleRow{}, fmt.Errorf("%s @ %d MPUs: %w", name, n, err)
		}
		return ScaleRow{
			App: name, MPUs: n, Seconds: res.Seconds, Joules: res.Joules,
			Units:           units,
			Throughput:      float64(units) / res.Seconds,
			EnergyPerUnitPJ: res.Joules * 1e12 / float64(units),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedups are relative to each app's smallest-count row, filled in once
	// every cell has run.
	for i := range rows {
		base := rows[i/len(counts)*len(counts)]
		rows[i].Speedup = rows[i].Throughput / base.Throughput
	}
	return rows, nil
}

// RenderScale prints the scaling study.
func RenderScale(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Scaling — application throughput and energy vs MPU count (MPU:RACER-512)\n")
	fmt.Fprintf(&sb, "%-14s %6s %10s %12s %12s %14s %9s %12s\n",
		"application", "MPUs", "units", "seconds", "joules", "units/s", "speedup", "pJ/unit")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %6d %10d %12.3g %12.3g %14.4g %8.1fx %12.1f\n",
			r.App, r.MPUs, r.Units, r.Seconds, r.Joules, r.Throughput, r.Speedup, r.EnergyPerUnitPJ)
	}
	return sb.String()
}

// ScaleCSV renders the scaling study.
func ScaleCSV(rows []ScaleRow) [][]string {
	out := [][]string{{"app", "mpus", "units", "seconds", "joules",
		"throughput_units_per_s", "speedup_vs_2mpu", "pj_per_unit"}}
	for _, r := range rows {
		out = append(out, []string{
			r.App, strconv.Itoa(r.MPUs), strconv.Itoa(r.Units),
			f64(r.Seconds), f64(r.Joules),
			f64(r.Throughput), f64(r.Speedup), f64(r.EnergyPerUnitPJ),
		})
	}
	return out
}
