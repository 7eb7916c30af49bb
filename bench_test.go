package mpu_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment through internal/exp and reports the
// headline statistic the paper quotes as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// (`cmd/mastodon` prints the full rows.)

import (
	"fmt"
	"testing"
	"time"

	"mpu"
	"mpu/internal/apps"
	"mpu/internal/exp"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// benchOpts shrink working sets for bench runs; the simulated portion (and
// thus the measured shapes) is unchanged — only the analytic scale factors
// move. Workers is left at 0 so the figure benchmarks exercise the default
// parallel sweep path (one worker per CPU); the *Sequential/*Parallel
// variants below pin the worker count for scaling comparisons.
var benchOpts = exp.Options{Scale: 8, Seed: 1}

var (
	seqOpts = exp.Options{Scale: 8, Seed: 1, Workers: 1}
	parOpts = exp.Options{Scale: 8, Seed: 1, Workers: 0}
)

// BenchmarkFig1 is a dynamic-loop sweep on RACER: no round replays, so
// /engine against /notrace is the expansion kernels against the reference
// interpreter (about 2x apart, docs/PERF.md).
func BenchmarkFig1(b *testing.B) {
	for _, bc := range engineCases {
		b.Run(bc.name, func(b *testing.B) {
			opts := benchOpts
			opts.NoTrace = bc.noTrace
			for i := 0; i < b.N; i++ {
				r, err := exp.Fig1(opts)
				if err != nil {
					b.Fatal(err)
				}
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.Slowdown, "slowdown@80instr")
			}
		})
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.Fig5(benchOpts)
		over := 0
		for _, p := range pts {
			if p.OverLimit {
				over++
			}
		}
		b.ReportMetric(float64(over), "points-over-limit")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table3() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Fig11() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := exp.Fig12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			switch r.Backend {
			case "RACER":
				b.ReportMetric(r.GeoSpeedup, "racer-speedup")
				b.ReportMetric(r.GeoEnergy, "racer-energy")
			case "MIMDRAM":
				b.ReportMetric(r.GeoSpeedup, "mimdram-speedup")
			case "DualityCache":
				b.ReportMetric(r.GeoSpeedup, "dcache-speedup")
			}
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := exp.Fig13(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Backend == "RACER" {
				b.ReportMetric(r.GeoMPUSpeedup, "racer-vs-gpu")
				b.ReportMetric(r.GeoMPUEnergy, "racer-energy-vs-gpu")
			}
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		ratio := 0.0
		for _, r := range rows {
			ratio += float64(r.AsmLines) / float64(r.EzpimLines)
		}
		b.ReportMetric(ratio/float64(len(rows)), "asm/ezpim-loc")
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig14(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "EditDistance" && r.Backend == "RACER" {
				b.ReportMetric(r.MPUOverBaseline, "editdist-mpu/base")
			}
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig15(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "EditDistance" && r.Backend == "RACER" && r.Mode == "Baseline" {
				b.ReportMetric(r.OffChipShare, "editdist-offchip-share")
			}
		}
	}
}

func BenchmarkAblationRecipeTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationRecipeTable(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[3].DecodeStalls)/float64(rows[0].DecodeStalls+1), "stall-ratio-unopt/opt")
	}
}

func BenchmarkAblationThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationThermal(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Speedup, "2-active-speedup")
	}
}

func BenchmarkAblationDivergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationDivergence(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].MicroOps)/float64(rows[0].MicroOps), "wasted-work-ratio")
	}
}

// BenchmarkFig12Sequential and BenchmarkFig12Parallel run the heaviest sweep
// (3 backends x 21 kernels x 2 modes = 126 simulation cells) with the worker
// pool pinned to 1 and to one-per-CPU respectively, so
// `go test -bench 'Fig12(Sequential|Parallel)'` tracks the sweep engine's
// wall-clock under both schedules.
func BenchmarkFig12Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(seqOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(parOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSpeedup times one sequential and one parallel Fig. 12 sweep
// per iteration and reports the ratio, so the speedup itself is a tracked
// benchmark metric (1.0 on a single-CPU host, approaching min(NumCPU, 126)x
// as cores are added).
func BenchmarkSweepSpeedup(b *testing.B) {
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := exp.Fig12(seqOpts); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := exp.Fig12(parOpts); err != nil {
			b.Fatal(err)
		}
		seq += t1.Sub(t0)
		par += time.Since(t1)
	}
	b.ReportMetric(seq.Seconds()/par.Seconds(), "seq/par-speedup")
}

// BenchmarkLintLargestKernel measures the static-verification overhead on
// the largest kernel binary in the suite — the preflight cost every tool in
// the chain (Builder.Program, mpurun, strict machines) pays per program.
func BenchmarkLintLargestKernel(b *testing.B) {
	spec := mpu.RACER()
	var largest mpu.Program
	for _, k := range workloads.All() {
		p, _, err := workloads.BuildProgram(k, spec, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(p) > len(largest) {
			largest = p
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mpu.Lint(largest, mpu.LintOptions{Spec: spec})
		if !r.Ok() {
			b.Fatalf("largest kernel not lint-ok:\n%s", r)
		}
		b.ReportMetric(float64(len(largest)), "instructions")
	}
}

// engineCases are the two ways a machine executes a round: the engine (the
// default: compiled kernels on every round, replayed where a trace allows)
// and the reference interpreter.
var engineCases = []struct {
	name    string
	noTrace bool
}{{"engine", false}, {"notrace", true}}

// BenchmarkMachineRun measures one machine executing the largest kernel in
// the suite (crc32) — the simulator hot path in isolation from the sweep
// worker pool. The activation limit is pinned to 1 with two VRFs per RFH so
// every ensemble schedules at least two rounds of eight. crc32's body is
// dynamic, so no round replays: /engine runs every round through the
// expansion kernels and /notrace through the reference interpreter. At 64
// lanes that is the closure chain against the per-op switch — ahead where
// the recipe has same-kind runs to fuse (racer), behind where it has none
// (mimdram); at simdram's 256 both run the same slab kernels and the legs
// land together. racer-3vrf is the sim-dynamic workload's shape: three VRFs,
// one round of three, so its engine leg runs the 3-wide group bodies (`make
// profile BENCH='MachineRun/racer-3vrf/engine'`).
func BenchmarkMachineRun(b *testing.B) {
	var largest *workloads.Kernel
	var size int
	for _, k := range workloads.All() {
		p, _, err := workloads.BuildProgram(k, mpu.RACER(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(p) > size {
			largest, size = k, len(p)
		}
	}
	for _, leg := range []struct {
		name string
		spec *mpu.Backend
		vrfs int
	}{
		{"racer", mpu.RACER(), 16}, {"mimdram", mpu.MIMDRAM(), 16},
		{"dualitycache", mpu.DualityCache(), 16}, {"simdram", mpu.SIMDRAM(), 16},
		{"racer-3vrf", mpu.RACER(), 3},
	} {
		spec := leg.spec
		cfg := workloads.RunConfig{
			Spec: spec, Mode: 0, TotalElements: spec.BaselineUnits * spec.Lanes * leg.vrfs,
			Seed: 1, MaxSimVRFs: leg.vrfs, ActiveVRFsOverride: 1,
		}
		for _, bc := range engineCases {
			b.Run(leg.name+"/"+bc.name, func(b *testing.B) {
				c := cfg
				c.NoTrace = bc.noTrace
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := workloads.Run(largest, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTraceReplay isolates the replay hot loop in steady state: the
// machine is built once, a replay-eligible kernel (sobelx) is loaded and run
// once to record its traces and warm the recipe table, and each iteration
// then Rewinds and re-runs it — the resident-kernel regime, where every
// scheduling round is a trace hit and no host data transfer or program load
// is re-paid. The activation limit is pinned to 1 over many VRFs so one Run
// replays many rounds. /engine replays through the geometry's kernel — the
// fused closure chains at racer's 64 lanes (one word per plane), the
// slab-kernel loop at simdram's 256 (4-word slabs) — and /notrace is the
// reference interpreter.
func BenchmarkTraceReplay(b *testing.B) {
	steady := func(b *testing.B, spec *mpu.Backend, vrfs int, noTrace bool) {
		var kern *workloads.Kernel
		for _, k := range workloads.All() {
			if k.Name == "sobelx" {
				kern = k
			}
		}
		cfg := workloads.RunConfig{
			Spec: spec, Mode: 0, Seed: 1,
			TotalElements: spec.BaselineUnits * spec.Lanes * vrfs,
			MaxSimVRFs:    vrfs, ActiveVRFsOverride: 1,
			NoTrace: noTrace, Workers: 1,
		}
		m, err := machine.New(workloads.MachineConfigFor(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workloads.RunOn(m, kern, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Rewind()
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, bc := range engineCases {
		b.Run("racer/"+bc.name, func(b *testing.B) {
			steady(b, mpu.RACER(), 256, bc.noTrace)
		})
		b.Run("simdram/"+bc.name, func(b *testing.B) {
			steady(b, mpu.SIMDRAM(), 64, bc.noTrace)
		})
	}
}

// BenchmarkMachineRunMPUs measures ONE machine's phase-based scheduler as
// its core count grows: the editdistance systolic ring (per-MPU work pinned
// to two steps, one VRF per MPU) at 2, 16, and 128 MPUs, run /seq (Workers
// 1, the exact pre-refactor core walk) and /par (Workers 0 = one scheduler
// goroutine per CPU). Stats are byte-identical between the two (pinned by
// TestParallelMachineParity); the wall-clock ratio tracks the intra-machine
// speedup, which approaches min(NumCPU, MPUs)x on multi-core hosts and
// stays 1.0x on a single-CPU host.
func BenchmarkMachineRunMPUs(b *testing.B) {
	for _, n := range []int{2, 16, 128} {
		for _, sc := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(fmt.Sprintf("%d/%s", n, sc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := apps.RunEditDistance(apps.EditDistanceConfig{
						Spec: mpu.RACER(), Mode: 0, MPUs: n, VRFs: 1, Steps: 2,
						Seed: 1, MachineWorkers: sc.workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelSuite measures raw simulator throughput over all 21 kernels
// on RACER (the packages' micro-benchmarks cover the layers individually).
func BenchmarkKernelSuite(b *testing.B) {
	spec := mpu.RACER()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range workloads.All() {
			if _, err := workloads.Run(k, workloads.RunConfig{
				Spec: spec, Mode: 0, TotalElements: spec.MPUs * spec.Lanes, Seed: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHostIO measures the host↔VRF data path a request pays around its
// run: /write loads three input registers into each of 64 mapped register
// files (Machine.WriteVector: one 64×64 bit-tile transpose per 64 lanes),
// /read copies them back out (ReadVector), and /reset-reuse is the pooled
// request cycle — Reset parks the register files, the first write to each
// address recycles one (clearing only the registers the last request
// dirtied) and loads it. MB/s is host data moved; `make profile
// BENCH=HostIO` shows the function shares.
func BenchmarkHostIO(b *testing.B) {
	const vrfs, regs = 64, 3
	for _, g := range []struct {
		name string
		spec *mpu.Backend
	}{{"racer64", mpu.RACER()}, {"simdram256", mpu.SIMDRAM()}} {
		spec := g.spec
		addrs := make([]mpu.VRFAddr, vrfs)
		for v := range addrs {
			addrs[v] = mpu.VRFAddr{RFH: uint8(v % spec.RFHsPerMPU), VRF: uint8(v / spec.RFHsPerMPU)}
		}
		vals := make([]uint64, spec.Lanes)
		for l := range vals {
			vals[l] = uint64(l+1) * 0x9e3779b97f4a7c15
		}
		newMachine := func(b *testing.B) *machine.Machine {
			m, err := machine.New(machine.Config{Spec: spec, Mode: machine.ModeMPU, NumMPUs: 1})
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		write := func(b *testing.B, m *machine.Machine) {
			for _, a := range addrs {
				for reg := 0; reg < regs; reg++ {
					if err := m.WriteVector(0, a, reg, vals); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		for _, c := range []struct {
			name string
			iter func(b *testing.B, m *machine.Machine)
		}{
			{"write", write},
			{"read", func(b *testing.B, m *machine.Machine) {
				for _, a := range addrs {
					for reg := 0; reg < regs; reg++ {
						if _, err := m.ReadVector(0, a, reg); err != nil {
							b.Fatal(err)
						}
					}
				}
			}},
			{"reset-reuse", func(b *testing.B, m *machine.Machine) {
				m.Reset()
				write(b, m)
			}},
		} {
			b.Run(g.name+"/"+c.name, func(b *testing.B) {
				m := newMachine(b)
				write(b, m)
				b.SetBytes(int64(vrfs * regs * spec.Lanes * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.iter(b, m)
				}
			})
		}
	}
}
