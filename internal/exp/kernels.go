package exp

import (
	"fmt"
	"strings"

	"mpu/internal/backends"
	"mpu/internal/gpumodel"
	"mpu/internal/machine"
	"mpu/internal/sweep"
	"mpu/internal/workloads"
)

// baselineComputeScale returns the Baseline compute inflation for a kernel:
// stencils run as 4×-footprint Toeplitz matrix products on the original
// datapaths (§VIII-B).
func baselineComputeScale(k *workloads.Kernel) float64 {
	if k.Group == workloads.Stencil {
		return 4
	}
	return 1
}

// maxSimVRFs keeps the functional portion of chip-scale runs small; timing
// scales through the scheduler-round factor (see workloads.Run).
const maxSimVRFs = 8

// KernelRow is one kernel's Fig. 12 comparison on one back end.
type KernelRow struct {
	Kernel string
	Group  workloads.Group

	MPUSeconds, BaselineSeconds float64
	MPUJoules, BaselineJoules   float64

	Speedup       float64 // Baseline time / MPU time
	EnergySavings float64 // Baseline energy / MPU energy
}

// Fig12Result is one back end's kernel sweep.
type Fig12Result struct {
	Backend string
	Rows    []KernelRow

	GeoSpeedup, GeoEnergy           float64
	GroupGeoSpeedup, GroupGeoEnergy map[workloads.Group]float64

	// Trace-engine round accounting summed over the sweep's machine runs
	// (simulator execution strategy, not modeled hardware; all zero with
	// -notrace).
	TraceHits, TraceMisses, TraceFallbacks uint64

	// Trace-JIT accounting: compiled closure-chain programs and the replay
	// rounds they served (zero with -notrace).
	JITCompiles, JITReplays uint64
}

// Fig12 runs all 21 kernels on every back end in MPU and Baseline modes and
// reports speedup and energy savings of MPU:X over Baseline:X. Every
// (backend, kernel) cell is an independent machine run, fanned out across
// opts.Workers and reassembled in sweep order.
func Fig12(opts Options) ([]*Fig12Result, error) {
	opts = opts.norm()
	specs := backends.All()
	kernels := workloads.All()
	nk := len(kernels)
	mw := opts.machineWorkers()
	type cell struct{ mpu, base *workloads.Result }
	cells, err := sweep.Map(opts.Workers, len(specs)*nk, func(i int) (cell, error) {
		spec, k := specs[i/nk], kernels[i%nk]
		n := elementsFor(spec, opts.Scale)
		mpu, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeMPU, TotalElements: n,
			Seed: opts.Seed, MaxSimVRFs: maxSimVRFs, NoTrace: opts.NoTrace, Workers: mw,
		})
		if err != nil {
			return cell{}, fmt.Errorf("fig12 %s MPU:%s: %w", k.Name, spec.Name, err)
		}
		base, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeBaseline, TotalElements: n,
			Seed: opts.Seed, MaxSimVRFs: maxSimVRFs, NoTrace: opts.NoTrace, Workers: mw,
			ComputeScale: baselineComputeScale(k),
		})
		if err != nil {
			return cell{}, fmt.Errorf("fig12 %s Baseline:%s: %w", k.Name, spec.Name, err)
		}
		return cell{mpu, base}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Fig12Result
	for si, spec := range specs {
		res := &Fig12Result{
			Backend:         spec.Name,
			GroupGeoSpeedup: map[workloads.Group]float64{},
			GroupGeoEnergy:  map[workloads.Group]float64{},
		}
		groupSpeed := map[workloads.Group][]float64{}
		groupEnergy := map[workloads.Group][]float64{}
		var speeds, energies []float64
		for ki, k := range kernels {
			c := cells[si*nk+ki]
			row := KernelRow{
				Kernel: k.Name, Group: k.Group,
				MPUSeconds: c.mpu.Seconds, BaselineSeconds: c.base.Seconds,
				MPUJoules: c.mpu.Joules, BaselineJoules: c.base.Joules,
				Speedup:       c.base.Seconds / c.mpu.Seconds,
				EnergySavings: c.base.Joules / c.mpu.Joules,
			}
			res.Rows = append(res.Rows, row)
			res.TraceHits += c.mpu.Stats.TraceHits + c.base.Stats.TraceHits
			res.TraceMisses += c.mpu.Stats.TraceMisses + c.base.Stats.TraceMisses
			res.TraceFallbacks += c.mpu.Stats.TraceFallbacks + c.base.Stats.TraceFallbacks
			res.JITCompiles += c.mpu.Stats.JITCompiles + c.base.Stats.JITCompiles
			res.JITReplays += c.mpu.Stats.JITReplays + c.base.Stats.JITReplays
			speeds = append(speeds, row.Speedup)
			energies = append(energies, row.EnergySavings)
			groupSpeed[k.Group] = append(groupSpeed[k.Group], row.Speedup)
			groupEnergy[k.Group] = append(groupEnergy[k.Group], row.EnergySavings)
		}
		res.GeoSpeedup = geomean(speeds)
		res.GeoEnergy = geomean(energies)
		for g, xs := range groupSpeed {
			res.GroupGeoSpeedup[g] = geomean(xs)
		}
		for g, xs := range groupEnergy {
			res.GroupGeoEnergy[g] = geomean(xs)
		}
		out = append(out, res)
	}
	return out, nil
}

// Render prints the per-kernel speedups and energy savings.
func (r *Fig12Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 12 — MPU:%s vs Baseline:%s\n", r.Backend, r.Backend)
	fmt.Fprintf(&sb, "%-12s %-8s %10s %10s\n", "kernel", "group", "speedup", "energy")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %-8s %9.2fx %9.2fx\n", row.Kernel, row.Group, row.Speedup, row.EnergySavings)
	}
	for _, g := range []workloads.Group{workloads.Basic, workloads.Branch, workloads.Stencil, workloads.Complex} {
		fmt.Fprintf(&sb, "geomean %-10s %9.2fx %9.2fx\n", g, r.GroupGeoSpeedup[g], r.GroupGeoEnergy[g])
	}
	fmt.Fprintf(&sb, "geomean %-10s %9.2fx %9.2fx\n", "all", r.GeoSpeedup, r.GeoEnergy)
	if n := r.TraceHits + r.TraceMisses + r.TraceFallbacks; n > 0 {
		fmt.Fprintf(&sb, "trace engine: %d/%d rounds replayed (%d recorded, %d interpreted)\n",
			r.TraceHits, n, r.TraceMisses, r.TraceFallbacks)
	}
	if r.JITCompiles+r.JITReplays > 0 {
		fmt.Fprintf(&sb, "trace JIT: %d compiled bodies served %d replay rounds\n",
			r.JITCompiles, r.JITReplays)
	}
	return sb.String()
}

// GPURow is one kernel's Fig. 13 comparison against the RTX 4090 model.
type GPURow struct {
	Kernel string
	Group  workloads.Group

	BaselineSpeedupVsGPU float64
	MPUSpeedupVsGPU      float64
	BaselineEnergyVsGPU  float64
	MPUEnergyVsGPU       float64
}

// Fig13Result is one back end's GPU-normalized sweep.
type Fig13Result struct {
	Backend string
	Rows    []GPURow

	GeoMPUSpeedup, GeoMPUEnergy           float64
	GeoBaselineSpeedup, GeoBaselineEnergy float64
}

// Fig13 normalizes Baseline:X and MPU:X to the GPU for RACER and MIMDRAM
// (plus DualityCache, which the paper summarizes in prose). Cells fan out
// like Fig12; the analytical GPU run rides along in each cell.
func Fig13(opts Options) ([]*Fig13Result, error) {
	opts = opts.norm()
	gpu := gpumodel.RTX4090()
	specs := backends.All()
	kernels := workloads.All()
	nk := len(kernels)
	mw := opts.machineWorkers()
	cells, err := sweep.Map(opts.Workers, len(specs)*nk, func(i int) (GPURow, error) {
		spec, k := specs[i/nk], kernels[i%nk]
		n := elementsFor(spec, opts.Scale)
		g, err := workloads.GPURun(k, gpu, n)
		if err != nil {
			return GPURow{}, err
		}
		mpu, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeMPU, TotalElements: n,
			Seed: opts.Seed, MaxSimVRFs: maxSimVRFs, NoTrace: opts.NoTrace, Workers: mw,
		})
		if err != nil {
			return GPURow{}, err
		}
		base, err := workloads.Run(k, workloads.RunConfig{
			Spec: spec, Mode: machine.ModeBaseline, TotalElements: n,
			Seed: opts.Seed, MaxSimVRFs: maxSimVRFs, NoTrace: opts.NoTrace, Workers: mw,
			ComputeScale: baselineComputeScale(k),
		})
		if err != nil {
			return GPURow{}, err
		}
		return GPURow{
			Kernel: k.Name, Group: k.Group,
			BaselineSpeedupVsGPU: g.Seconds / base.Seconds,
			MPUSpeedupVsGPU:      g.Seconds / mpu.Seconds,
			BaselineEnergyVsGPU:  g.Joules / base.Joules,
			MPUEnergyVsGPU:       g.Joules / mpu.Joules,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Fig13Result
	for si, spec := range specs {
		res := &Fig13Result{Backend: spec.Name}
		var ms, me, bs, be []float64
		for ki := range kernels {
			row := cells[si*nk+ki]
			res.Rows = append(res.Rows, row)
			ms = append(ms, row.MPUSpeedupVsGPU)
			me = append(me, row.MPUEnergyVsGPU)
			bs = append(bs, row.BaselineSpeedupVsGPU)
			be = append(be, row.BaselineEnergyVsGPU)
		}
		res.GeoMPUSpeedup = geomean(ms)
		res.GeoMPUEnergy = geomean(me)
		res.GeoBaselineSpeedup = geomean(bs)
		res.GeoBaselineEnergy = geomean(be)
		out = append(out, res)
	}
	return out, nil
}

// Render prints the GPU-normalized rows (log-scale data in the paper).
func (r *Fig13Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 13 — Baseline:%s and MPU:%s normalized to GPU (RTX 4090 model)\n", r.Backend, r.Backend)
	fmt.Fprintf(&sb, "%-12s %-8s %14s %14s %14s %14s\n",
		"kernel", "group", "base speedup", "MPU speedup", "base energy", "MPU energy")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %-8s %13.2fx %13.2fx %13.2fx %13.2fx\n",
			row.Kernel, row.Group,
			row.BaselineSpeedupVsGPU, row.MPUSpeedupVsGPU,
			row.BaselineEnergyVsGPU, row.MPUEnergyVsGPU)
	}
	fmt.Fprintf(&sb, "geomean: base %.2fx / MPU %.2fx speedup, base %.2fx / MPU %.2fx energy\n",
		r.GeoBaselineSpeedup, r.GeoMPUSpeedup, r.GeoBaselineEnergy, r.GeoMPUEnergy)
	return sb.String()
}
