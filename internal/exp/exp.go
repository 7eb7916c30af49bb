// Package exp regenerates every table and figure of the paper's evaluation
// (§VII–§VIII): the Fig. 1 motivation study, the Table I feature matrix, the
// Fig. 5 power-density curves, Table III system parameters, the Fig. 11
// front-end breakdown, the Fig. 12/13 kernel comparisons, Table IV and the
// Fig. 14/15 end-to-end application studies, plus the ablations called out
// in DESIGN.md. Each experiment returns structured rows and renders the same
// series the paper reports.
package exp

import (
	"fmt"
	"math"
	"strings"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/ezpim"
	"mpu/internal/frontend"
	"mpu/internal/isa"
	"mpu/internal/machine"
	"mpu/internal/sweep"
)

// Options tunes experiment scale. Scale divides the paper-scale element
// counts (1 = full evaluation size; larger values shrink runs for quick
// iteration and tests).
//
// Workers sets the sweep fan-out: every independent cell of an experiment
// (one machine run of one backend × kernel × mode configuration, one
// figure point) is dispatched to a bounded worker pool and the results are
// reassembled in input order, so rendered tables, figures, and CSVs are
// byte-identical at any worker count. 0 means runtime.GOMAXPROCS; 1 forces
// the exact sequential execution path (the CLI's -j 1).
type Options struct {
	Scale   int
	Seed    int64
	Workers int

	// MachineWorkers sets the goroutines each cell's machine runs on
	// (machine.Config.Workers): its cores between communication points, or
	// the VRFs of a lone core's heavy thermal rounds. 0 divides GOMAXPROCS by
	// the sweep worker count so the two levels of parallelism share one CPU
	// budget (sweep.MachineWorkers); 1 runs each machine on its cell's
	// goroutine (the CLI's -mj 1). Statistics — and thus every rendered
	// table and CSV — are byte-identical at any value.
	MachineWorkers int

	// NoTrace forwards to machine.Config: run the reference interpreter, with
	// no ensemble traces and no compiled kernels (the CLI's -notrace).
	NoTrace bool
}

// machineWorkers resolves the per-cell scheduler budget for a sweep fanning
// out at o.Workers (see sweep.MachineWorkers).
func (o Options) machineWorkers() int {
	return sweep.MachineWorkers(o.MachineWorkers, sweep.Workers(o.Workers))
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// elementsFor returns the Fig. 12/13 working-set size for a back end: a
// chip-scale problem (7/8 of baseline VRF capacity for RACER/MIMDRAM so
// both configurations hold it; 1.5× capacity for Duality Cache, whose
// 0.2 GB SRAM forces external streaming, §VIII-B).
func elementsFor(spec *backends.Spec, scale int) int {
	switch spec.Name {
	case "DualityCache":
		n := spec.MPUs * spec.VRFsPerMPU() * spec.Lanes
		return n * 3 / 2 / scale
	default:
		return spec.BaselineUnits * spec.Lanes * 448 / scale
	}
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---- Fig. 1 ---------------------------------------------------------------

// Fig1Point is one x-position of the Fig. 1 study.
type Fig1Point struct {
	BodyInstrs   int
	PUMCycles    int64 // loop time with in-MPU control
	CPUCycles    int64 // added CPU time in the Baseline configuration
	Slowdown     float64
	CPUTimeShare float64
}

// Fig1Result is the dynamic-loop breakdown for RACER.
type Fig1Result struct {
	Points []Fig1Point
}

// Fig1 reproduces the motivation study: a dynamic loop of back-to-back
// CMPEQ instructions on RACER, with the loop condition evaluated either by
// the MPU control path or by the host CPU (one round trip per iteration).
func Fig1(opts Options) (*Fig1Result, error) {
	opts = opts.norm()
	spec := backends.RACER()
	const iters = 4
	bodies := []int{1, 2, 5, 10, 20, 40, 80}
	mw := opts.machineWorkers()
	points, err := sweep.Map(opts.Workers, len(bodies), func(i int) (Fig1Point, error) {
		k := bodies[i]
		prog, err := fig1Program(k, iters)
		if err != nil {
			return Fig1Point{}, err
		}
		run := func(mode machine.Mode) (*machine.Stats, error) {
			m, err := machine.New(machine.Config{Spec: spec, Mode: mode, NumMPUs: 1, NoTrace: opts.NoTrace, Workers: mw})
			if err != nil {
				return nil, err
			}
			if err := m.LoadAll(prog); err != nil {
				return nil, err
			}
			// r0 counts down from iters; r1 = 1; r2 = 0.
			a := controlpath.VRFAddr{}
			if err := m.WriteVector(0, a, 0, broadcast(spec.Lanes, iters)); err != nil {
				return nil, err
			}
			return m.Run()
		}
		mpuSt, err := run(machine.ModeMPU)
		if err != nil {
			return Fig1Point{}, err
		}
		baseSt, err := run(machine.ModeBaseline)
		if err != nil {
			return Fig1Point{}, err
		}
		p := Fig1Point{
			BodyInstrs: k,
			PUMCycles:  mpuSt.Cycles,
			CPUCycles:  baseSt.OffloadCycles,
			Slowdown:   float64(baseSt.Cycles) / float64(mpuSt.Cycles),
		}
		p.CPUTimeShare = float64(baseSt.OffloadCycles) / float64(baseSt.Cycles)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Points: points}, nil
}

func fig1Program(bodyInstrs, iters int) (isa.Program, error) {
	b := ezpim.NewBuilder()
	b.Ensemble([]controlpath.VRFAddr{{}}, func() {
		b.Init1(1)
		b.Init0(2)
		b.While(ezpim.Gt(0, 2), func() {
			for i := 0; i < bodyInstrs; i++ {
				b.Op(isa.CmpEq(3, 4))
			}
			b.Sub(0, 1, 0)
		})
	})
	return b.Program()
}

// Render prints the figure as text.
func (r *Fig1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 1 — RACER dynamic-loop slowdown when the CPU evaluates the loop condition\n")
	fmt.Fprintf(&sb, "%8s %14s %14s %10s %9s\n", "body", "PUM cycles", "CPU cycles", "slowdown", "CPU-share")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8d %14d %14d %9.1fx %8.0f%%\n",
			p.BodyInstrs, p.PUMCycles, p.CPUCycles, p.Slowdown, 100*p.CPUTimeShare)
	}
	return sb.String()
}

// ---- Table I --------------------------------------------------------------

// Table1 renders the feature matrix of Table I.
func Table1() string {
	rows := []struct {
		feature string
		support [7]byte // LS DC MD RC CPU GPU MPU
	}{
		{"if-else statements", [7]byte{'y', 'y', 'y', 'y', 'y', 'y', 'y'}},
		{"Dynamic loops", [7]byte{'n', 'n', 'n', 'n', 'y', 'y', 'y'}},
		{"Subroutine calls", [7]byte{'n', 'n', 'y', 'n', 'y', 'y', 'y'}},
		{"Global synchronization", [7]byte{'y', 'y', 'n', 'y', 'y', 'y', 'y'}},
		{"Collective communication", [7]byte{'n', 'y', 'y', 'y', 'y', 'n', 'y'}},
		{"Power-density-aware scheduling", [7]byte{'n', 'n', 'n', 'n', 'n', 'n', 'y'}},
		{"Runtime micro-op decoding", [7]byte{'n', 'n', 'y', 'y', 'y', 'n', 'y'}},
	}
	var sb strings.Builder
	sb.WriteString("Table I — MPU features vs prior PUM datapaths, CPUs, and GPUs\n")
	fmt.Fprintf(&sb, "%-32s %3s %3s %3s %3s %4s %4s %4s\n", "Feature", "LS", "DC", "MD", "RC", "CPU", "GPU", "MPU")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-32s", r.feature)
		for _, c := range r.support {
			mark := "-"
			if c == 'y' {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %3s", mark)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("(* = supported)\n")
	return sb.String()
}

// ---- Fig. 5 ---------------------------------------------------------------

// Fig5Point is the power density of one datapath at one activation level.
type Fig5Point struct {
	Backend      string
	ActiveArrays int
	WPerCM2      float64
	OverLimit    bool
}

// Fig5 sweeps active arrays per datapath against the air-cooling limit.
func Fig5(opts Options) []Fig5Point {
	opts = opts.norm()
	specs := backends.All()
	perBackend, _ := sweep.Map(opts.Workers, len(specs), func(i int) ([]Fig5Point, error) {
		spec := specs[i]
		total := spec.TotalVRFs()
		var pts []Fig5Point
		for _, frac := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
			n := int(float64(total) * frac)
			if n == 0 {
				n = 1
			}
			d := spec.PowerDensity(n)
			pts = append(pts, Fig5Point{
				Backend: spec.Name, ActiveArrays: n, WPerCM2: d,
				OverLimit: d > backends.AirCoolLimitWPerCM2,
			})
		}
		return pts, nil
	})
	var out []Fig5Point
	for _, pts := range perBackend {
		out = append(out, pts...)
	}
	return out
}

// RenderFig5 prints the sweep.
func RenderFig5(points []Fig5Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 5 — power density vs active memory arrays (air-cool limit %.0f W/cm²)\n",
		backends.AirCoolLimitWPerCM2)
	fmt.Fprintf(&sb, "%-14s %14s %12s %6s\n", "backend", "active arrays", "W/cm²", "limit")
	for _, p := range points {
		mark := ""
		if p.OverLimit {
			mark = "OVER"
		}
		fmt.Fprintf(&sb, "%-14s %14d %12.2f %6s\n", p.Backend, p.ActiveArrays, p.WPerCM2, mark)
	}
	return sb.String()
}

// ---- Table III ------------------------------------------------------------

// Table3 renders the system parameters.
func Table3() string {
	var sb strings.Builder
	sb.WriteString("Table III — system parameters\n")
	rc := controlpath.DefaultRecipeCacheConfig()
	fmt.Fprintf(&sb, "%-28s %v\n", "Template lookup capacity", rc.CapacityMicroOps)
	fmt.Fprintf(&sb, "%-28s %v\n", "Pointer table", rc.PointerTable)
	fmt.Fprintf(&sb, "%-28s %d entries\n", "Playback buffer", controlpath.NewPlaybackBuffer().Capacity)
	fmt.Fprintf(&sb, "%-28s 2 MB\n", "Instruction storage")
	for _, s := range backends.All() {
		fmt.Fprintf(&sb, "-- %s --\n", s.Name)
		fmt.Fprintf(&sb, "  %-26s %d\n", "MPUs on chip (iso-area)", s.MPUs)
		fmt.Fprintf(&sb, "  %-26s %d\n", "Baseline datapath units", s.BaselineUnits)
		fmt.Fprintf(&sb, "  %-26s %d\n", "RFHs per MPU", s.RFHsPerMPU)
		fmt.Fprintf(&sb, "  %-26s %d\n", "VRFs per RFH", s.VRFsPerRFH)
		fmt.Fprintf(&sb, "  %-26s %d\n", "Active VRFs per RFH", s.ActiveVRFsPerRFH)
		fmt.Fprintf(&sb, "  %-26s %d\n", "Lanes per VRF", s.Lanes)
		fmt.Fprintf(&sb, "  %-26s %d MB\n", "Memory per MPU", s.MemPerMPUMB)
		fmt.Fprintf(&sb, "  %-26s %d cycles\n", "Micro-op latency", s.CyclesPerMicroOp)
	}
	return sb.String()
}

// ---- Fig. 11 --------------------------------------------------------------

// Fig11 renders the front-end area/power breakdown and the §VIII-A chip
// impact numbers. It lives in internal/frontend; re-exported here for the
// CLI.
func Fig11() string {
	var sb strings.Builder
	sb.WriteString("Fig. 11 — MPU front-end power and area breakdown (per MPU)\n")
	fmt.Fprintf(&sb, "%-26s %8s %9s %10s\n", "component", "area%", "static%", "dynamic%")
	for _, c := range frontend.Components() {
		fmt.Fprintf(&sb, "%-26s %7.0f%% %8.0f%% %9.1f%%\n",
			c.Name, 100*c.AreaFrac, 100*c.StaticFrac, 100*c.DynamicFrac)
	}
	a, s, d := frontend.StorageShare()
	fmt.Fprintf(&sb, "storage components: %.0f%% area, %.0f%% static, %.0f%% dynamic\n", 100*a, 100*s, 100*d)
	fmt.Fprintf(&sb, "totals per MPU: %.3f mm², %.2f mW static, %.2f mW dynamic\n",
		frontend.AreaMM2, frontend.StaticPowerMW, frontend.DynamicPowerMW)
	areaCM2, staticMW := frontend.ChipImpact(512, 4.00, 330)
	fmt.Fprintf(&sb, "RACER + 512 MPUs: 4.00 → %.2f cm², 330 → %.0f mW static, max runtime %.1f W\n",
		areaCM2, staticMW, frontend.MaxRuntimePowerW(512))
	return sb.String()
}

func broadcast(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// defaultRecipeCfg returns the Table III recipe-table configuration.
func defaultRecipeCfg() controlpath.RecipeCacheConfig {
	return controlpath.DefaultRecipeCacheConfig()
}

// backendsByName resolves a back end for tests and the CLI.
func backendsByName(name string) (*backends.Spec, error) { return backends.ByName(name) }
