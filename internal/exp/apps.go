package exp

import (
	"fmt"
	"strings"

	"mpu/internal/apps"
	"mpu/internal/backends"
	"mpu/internal/gpumodel"
	"mpu/internal/machine"
	"mpu/internal/sweep"
	"mpu/internal/workloads"
)

// App sizes for the end-to-end studies (scaled-down instances of the paper's
// 130/2/23-MPU runs; see the apps package docs).
const (
	llmWorkers = 3
	llmVRFs    = 2
	bsOptVRFs  = 8
	edRing     = 8
	edVRFs     = 4
)

// runApp executes one end-to-end application cell. mw is the intra-machine
// scheduler worker count — the cell's share of the CPU budget when the
// enclosing sweep itself fans out (Options.machineWorkers).
func runApp(name string, spec *backends.Spec, mode machine.Mode, opts Options, mw int) (*apps.Result, error) {
	switch name {
	case "LLMEncode":
		return apps.RunLLMEncode(apps.LLMEncodeConfig{Spec: spec, Mode: mode, Workers: llmWorkers, VRFs: llmVRFs,
			Seed: opts.Seed, NoTrace: opts.NoTrace, MachineWorkers: mw})
	case "BlackScholes":
		return apps.RunBlackScholes(apps.BlackScholesConfig{Spec: spec, Mode: mode, Options: bsOptVRFs * spec.Lanes,
			Seed: opts.Seed, NoTrace: opts.NoTrace, MachineWorkers: mw})
	case "EditDistance":
		return apps.RunEditDistance(apps.EditDistanceConfig{Spec: spec, Mode: mode, MPUs: edRing, VRFs: edVRFs,
			Seed: opts.Seed, NoTrace: opts.NoTrace, MachineWorkers: mw})
	}
	return nil, fmt.Errorf("exp: unknown application %q", name)
}

// AppNames lists the end-to-end applications in Table IV order.
func AppNames() []string { return []string{"LLMEncode", "BlackScholes", "EditDistance"} }

// appGPUProfile characterizes the application for the RTX 4090 model at
// iso-chip utilization: the simulated instance occupies only a few MPUs, but
// the chip runs spec.MPUs/appMPUs independent instances concurrently (SPMD),
// so the GPU side must process the same total work. The MPU-side time is the
// single instance's makespan (the other instances run in parallel).
func appGPUProfile(name string, spec *backends.Spec) gpumodel.Profile {
	lanes := spec.Lanes
	switch name {
	case "LLMEncode":
		groups := spec.MPUs / (llmWorkers + 1)
		tokens := (llmWorkers + 1) * llmVRFs * lanes * groups
		return gpumodel.Profile{
			Name: name, Elements: tokens,
			OpsPerElement: 150, BytesPerElement: 64, Passes: 4, Divergence: 1,
			HostBytes: float64(tokens * 64),
		}
	case "BlackScholes":
		groups := spec.MPUs / 2
		options := 2 * bsOptVRFs * lanes * groups
		return gpumodel.Profile{
			Name: name, Elements: options,
			// The GPU prices an option in ~60 ops using hardware
			// transcendentals — the advantage §VIII-D highlights.
			OpsPerElement: 60, BytesPerElement: 40, Passes: 1, Divergence: 1,
			HostBytes: float64(options * 40),
		}
	case "EditDistance":
		groups := spec.MPUs / edRing
		reads := edRing * edVRFs * lanes * groups
		return gpumodel.Profile{
			Name: name, Elements: reads,
			OpsPerElement: float64(edRing * 20), BytesPerElement: 24,
			Passes: edRing, Divergence: 1.5,
			HostBytes: float64(reads * 24),
		}
	}
	return gpumodel.Profile{}
}

// Table4Row summarizes one application.
type Table4Row struct {
	App         string
	Steps       string
	Collectives string
	MPUs        int
	AsmLines    int // hand-written MPU assembly proxy ("Baseline" LoC)
	EzpimLines  int
}

// Table4 measures the end-to-end application structure and the ezpim code
// size reduction, on RACER in MPU mode.
func Table4(opts Options) ([]Table4Row, error) {
	opts = opts.norm()
	spec := backends.RACER()
	names := AppNames()
	mw := opts.machineWorkers()
	return sweep.Map(opts.Workers, len(names), func(i int) (Table4Row, error) {
		res, err := runApp(names[i], spec, machine.ModeMPU, opts, mw)
		if err != nil {
			return Table4Row{}, err
		}
		return Table4Row{
			App:         res.Name,
			Steps:       strings.Join(res.Steps, ", "),
			Collectives: strings.Join(res.Collectives, ", "),
			MPUs:        res.MPUs,
			AsmLines:    res.AsmLines,
			EzpimLines:  res.EzpimLines,
		}, nil
	})
}

// RenderTable4 prints the application summary.
func RenderTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table IV — end-to-end application execution on the MPU\n")
	fmt.Fprintf(&sb, "%-14s %-36s %-22s %5s %9s %7s\n",
		"application", "compute steps", "collective comm.", "MPUs", "LoC(asm)", "LoC(ez)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-36s %-22s %5d %9d %7d\n",
			r.App, r.Steps, r.Collectives, r.MPUs, r.AsmLines, r.EzpimLines)
	}
	return sb.String()
}

// Fig14Row is one application × back end comparison against the GPU.
type Fig14Row struct {
	App     string
	Backend string

	BaselineSpeedupVsGPU float64
	MPUSpeedupVsGPU      float64
	BaselineEnergyVsGPU  float64
	MPUEnergyVsGPU       float64
	MPUOverBaseline      float64
}

// Fig14 compares Baseline and MPU configurations of RACER and MIMDRAM
// against the GPU on the three applications.
func Fig14(opts Options) ([]Fig14Row, error) {
	opts = opts.norm()
	gpu := gpumodel.RTX4090()
	specs := []*backends.Spec{backends.RACER(), backends.MIMDRAM()}
	names := AppNames()
	mw := opts.machineWorkers()
	return sweep.Map(opts.Workers, len(specs)*len(names), func(i int) (Fig14Row, error) {
		spec, name := specs[i/len(names)], names[i%len(names)]
		g, err := gpu.Run(appGPUProfile(name, spec))
		if err != nil {
			return Fig14Row{}, err
		}
		mpu, err := runApp(name, spec, machine.ModeMPU, opts, mw)
		if err != nil {
			return Fig14Row{}, err
		}
		base, err := runApp(name, spec, machine.ModeBaseline, opts, mw)
		if err != nil {
			return Fig14Row{}, err
		}
		return Fig14Row{
			App: name, Backend: spec.Name,
			BaselineSpeedupVsGPU: g.Seconds / base.Seconds,
			MPUSpeedupVsGPU:      g.Seconds / mpu.Seconds,
			BaselineEnergyVsGPU:  g.Joules / base.Joules,
			MPUEnergyVsGPU:       g.Joules / mpu.Joules,
			MPUOverBaseline:      base.Seconds / mpu.Seconds,
		}, nil
	})
}

// RenderFig14 prints the application comparison.
func RenderFig14(rows []Fig14Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 14 — end-to-end application speedup and energy vs GPU\n")
	fmt.Fprintf(&sb, "%-14s %-10s %12s %12s %12s %12s %12s\n",
		"application", "backend", "base spd", "MPU spd", "base enrg", "MPU enrg", "MPU/base")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-10s %11.3fx %11.3fx %11.3fx %11.3fx %11.2fx\n",
			r.App, r.Backend,
			r.BaselineSpeedupVsGPU, r.MPUSpeedupVsGPU,
			r.BaselineEnergyVsGPU, r.MPUEnergyVsGPU, r.MPUOverBaseline)
	}
	return sb.String()
}

// Fig15Row is one execution-time breakdown.
type Fig15Row struct {
	App     string
	Backend string
	Mode    string

	ComputeShare  float64
	InterMPUShare float64
	OffChipShare  float64
}

// Fig15 breaks application execution time into MPU computation, on-chip
// inter-MPU communication, and off-chip CPU communication.
func Fig15(opts Options) ([]Fig15Row, error) {
	opts = opts.norm()
	specs := []*backends.Spec{backends.RACER(), backends.MIMDRAM()}
	names := AppNames()
	modes := []machine.Mode{machine.ModeMPU, machine.ModeBaseline}
	nCells := len(specs) * len(names) * len(modes)
	mw := opts.machineWorkers()
	return sweep.Map(opts.Workers, nCells, func(i int) (Fig15Row, error) {
		spec := specs[i/(len(names)*len(modes))]
		name := names[i/len(modes)%len(names)]
		mode := modes[i%len(modes)]
		res, err := runApp(name, spec, mode, opts, mw)
		if err != nil {
			return Fig15Row{}, err
		}
		c, n, o := res.Breakdown()
		return Fig15Row{
			App: name, Backend: spec.Name, Mode: mode.String(),
			ComputeShare: c, InterMPUShare: n, OffChipShare: o,
		}, nil
	})
}

// RenderFig15 prints the breakdown.
func RenderFig15(rows []Fig15Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 15 — execution time breakdown (MPU compute / inter-MPU / off-chip CPU)\n")
	fmt.Fprintf(&sb, "%-14s %-10s %-9s %9s %10s %9s\n", "application", "backend", "config", "compute", "inter-MPU", "off-chip")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-10s %-9s %8.0f%% %9.0f%% %8.0f%%\n",
			r.App, r.Backend, r.Mode, 100*r.ComputeShare, 100*r.InterMPUShare, 100*r.OffChipShare)
	}
	return sb.String()
}

// ---- Ablations -------------------------------------------------------------

// AblationRecipeRow is one recipe-table configuration's decode cost.
type AblationRecipeRow struct {
	Config       string
	DecodeStalls int64
	Seconds      float64
}

// AblationRecipeTable measures the Fig. 9 optimizations: decode stalls with
// and without the pointer table and template-lookup caching, on a
// MUL/DIV-heavy kernel (softmax).
func AblationRecipeTable(opts Options) ([]AblationRecipeRow, error) {
	opts = opts.norm()
	spec := backends.RACER()
	k := workloads.ByName("softmax")
	n := spec.MPUs * spec.Lanes * 2
	configs := []struct {
		name                    string
		pointerTable, tmplCache bool
	}{
		{"pointer+lookup (default)", true, true},
		{"lookup only", false, true},
		{"pointer only", true, false},
		{"neither", false, false},
	}
	return sweep.Map(opts.Workers, len(configs), func(i int) (AblationRecipeRow, error) {
		c := configs[i]
		rc := defaultRecipeCfg()
		rc.PointerTable = c.pointerTable
		rc.TemplateLookup = c.tmplCache
		res, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeMPU, TotalElements: n,
			Seed: opts.Seed, RecipeCache: rc, NoTrace: opts.NoTrace,
		})
		if err != nil {
			return AblationRecipeRow{}, err
		}
		return AblationRecipeRow{
			Config: c.name, DecodeStalls: res.Stats.DecodeStalls, Seconds: res.Seconds,
		}, nil
	})
}

// RenderAblationRecipe prints the recipe-table ablation.
func RenderAblationRecipe(rows []AblationRecipeRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — recipe-table optimizations (softmax on MPU:RACER)\n")
	fmt.Fprintf(&sb, "%-28s %14s %12s\n", "configuration", "decode stalls", "seconds")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %14d %12.3g\n", r.Config, r.DecodeStalls, r.Seconds)
	}
	return sb.String()
}

// AblationThermalRow compares RACER activation limits (footnote 2).
type AblationThermalRow struct {
	ActiveVRFsPerRFH int
	Seconds          float64
	Speedup          float64 // vs 1 active VRF
}

// AblationThermal sweeps the RACER per-cluster activation limit on vecadd.
func AblationThermal(opts Options) ([]AblationThermalRow, error) {
	opts = opts.norm()
	spec := backends.RACER()
	k := workloads.ByName("vecadd")
	n := elementsFor(spec, opts.Scale)
	limits := []int{1, 2, 4}
	rows, err := sweep.Map(opts.Workers, len(limits), func(i int) (AblationThermalRow, error) {
		res, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeMPU, TotalElements: n,
			Seed: opts.Seed, MaxSimVRFs: maxSimVRFs, ActiveVRFsOverride: limits[i],
			NoTrace: opts.NoTrace,
		})
		if err != nil {
			return AblationThermalRow{}, err
		}
		return AblationThermalRow{ActiveVRFsPerRFH: limits[i], Seconds: res.Seconds}, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedups are relative to the 1-active-VRF row, filled in once every
	// cell has run.
	base := rows[0].Seconds
	for i := range rows {
		rows[i].Speedup = base / rows[i].Seconds
	}
	return rows, nil
}

// RenderAblationThermal prints the activation-limit sweep.
func RenderAblationThermal(rows []AblationThermalRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — RACER active VRFs per cluster (footnote 2)\n")
	fmt.Fprintf(&sb, "%12s %12s %10s\n", "active VRFs", "seconds", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%12d %12.3g %9.2fx\n", r.ActiveVRFsPerRFH, r.Seconds, r.Speedup)
	}
	return sb.String()
}

// AblationDivergenceRow compares scheduling granularities for a divergent
// dynamic loop.
type AblationDivergenceRow struct {
	ActiveVRFsPerRFH int
	Seconds          float64
	MicroOps         uint64 // issued work: bigger batches waste lanes
}

// AblationDivergence measures the §V footnote's argument against warp-style
// lockstep: larger activation batches force every VRF to ride the slowest
// lane's iteration count (gcd on RACER).
func AblationDivergence(opts Options) ([]AblationDivergenceRow, error) {
	opts = opts.norm()
	spec := backends.RACER()
	k := workloads.ByName("gcd")
	n := spec.MPUs * spec.Lanes * 32 // 32 VRFs per MPU share
	limits := []int{1, 4}
	return sweep.Map(opts.Workers, len(limits), func(i int) (AblationDivergenceRow, error) {
		res, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeMPU, TotalElements: n,
			Seed: opts.Seed, ActiveVRFsOverride: limits[i], NoTrace: opts.NoTrace,
		})
		if err != nil {
			return AblationDivergenceRow{}, err
		}
		return AblationDivergenceRow{
			ActiveVRFsPerRFH: limits[i], Seconds: res.Seconds, MicroOps: res.Stats.MicroOps,
		}, nil
	})
}

// RenderAblationDivergence prints the divergence ablation.
func RenderAblationDivergence(rows []AblationDivergenceRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation — ensemble batch granularity under divergence (gcd on MPU:RACER)\n")
	fmt.Fprintf(&sb, "%12s %12s %14s\n", "active VRFs", "seconds", "micro-ops")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%12d %12.3g %14d\n", r.ActiveVRFsPerRFH, r.Seconds, r.MicroOps)
	}
	return sb.String()
}
