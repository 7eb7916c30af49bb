package workloads

import (
	"fmt"
	"math/rand"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/ezpim"
	"mpu/internal/gpumodel"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

// The chip executes kernels SPMD: every MPU (or, for Baseline, every
// equivalent datapath unit) runs the same program on its share of the data.
// The runner therefore simulates ONE MPU's share functionally and in time —
// the chip makespan equals the per-MPU makespan — and scales energy to the
// full chip. Host-CPU costs are charged once per chip (the Baseline host
// broadcasts control decisions chip-wide). Working sets beyond one MPU's
// VRF capacity execute in passes, with the spilled data streamed from
// external memory (this is what throttles Duality Cache's 0.2 GB chip).

// External-memory streaming parameters for capacity overflow.
const (
	extMemGBs       = 50.0
	extMemPJPerByte = 20.0
)

// RunConfig configures one kernel execution.
type RunConfig struct {
	Spec          *backends.Spec
	Mode          machine.Mode
	TotalElements int
	Seed          int64

	// Check verifies every simulated lane against the scalar reference.
	Check bool

	// ComputeScale forwards to machine.Config (Baseline stencil Toeplitz
	// inflation).
	ComputeScale float64

	// ActiveVRFsOverride forwards to machine.Config (thermal ablation).
	ActiveVRFsOverride int

	// MaxSimVRFs caps the functionally simulated VRFs (testing knob);
	// 0 means the full per-MPU VRF count.
	MaxSimVRFs int

	// RecipeCache overrides the decode model (ablations); zero value means
	// the default configuration.
	RecipeCache controlpath.RecipeCacheConfig

	// NoTrace forwards to machine.Config: disable the compile-once/
	// replay-many trace engine and interpret every scheduling round.
	NoTrace bool

	// Workers forwards to machine.Config: scheduler goroutines executing
	// cores concurrently between communication points (0 = one per CPU,
	// 1 = sequential). Kernel runs simulate a single MPU, so this only
	// matters for callers that raise NumMPUs; it is plumbed so sweeps can
	// hand machines their share of the CPU budget uniformly.
	Workers int
}

// Result is one kernel execution on one configuration.
type Result struct {
	Kernel  string
	Config  string
	Stats   *machine.Stats
	Seconds float64 // chip makespan including overflow passes and streaming
	Joules  float64 // chip energy

	PerMPUElements int
	SimElements    int
	VRFs           int
	Overflow       float64 // energy scale: total VRFs / simulated VRFs
	RoundScale     float64 // time scale: real scheduler rounds / simulated
	CheckedLanes   int
}

// BuildProgram assembles kernel k's SPMD binary over simVRFs register files
// laid out round-robin across spec's RF holders, returning the program and
// the VRF addresses it activates. Run uses it internally; tools (the lint
// sweep, disassembly dumps) can call it without simulating anything.
func BuildProgram(k *Kernel, spec *backends.Spec, simVRFs int) (isa.Program, []controlpath.VRFAddr, error) {
	if simVRFs <= 0 {
		simVRFs = 1
	}
	addrs := make([]controlpath.VRFAddr, simVRFs)
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{
			RFH: uint8(v % spec.RFHsPerMPU),
			VRF: uint8(v / spec.RFHsPerMPU),
		}
	}
	b := ezpim.NewBuilder()
	if k.Subs != nil {
		k.Subs(b)
	}
	b.Ensemble(addrs, func() { k.Emit(b) })
	prog, err := b.Program()
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: %s: %w", k.Name, err)
	}
	return prog, addrs, nil
}

// MachineConfigFor returns the machine configuration Run would build for
// cfg. Pool owners (internal/serve) construct warm machines with it once at
// startup and then feed them to RunOn per request.
func MachineConfigFor(cfg RunConfig) machine.Config {
	return machine.Config{
		Spec:               cfg.Spec,
		Mode:               cfg.Mode,
		NumMPUs:            1,
		ComputeScale:       cfg.ComputeScale,
		ActiveVRFsOverride: cfg.ActiveVRFsOverride,
		Recipe:             cfg.RecipeCache,
		NoTrace:            cfg.NoTrace,
		Workers:            cfg.Workers,
	}
}

// Run executes kernel k under cfg on a machine built for the occasion.
func Run(k *Kernel, cfg RunConfig) (*Result, error) {
	m, err := machine.New(MachineConfigFor(cfg))
	if err != nil {
		return nil, err
	}
	return RunOn(m, k, cfg)
}

// Prepared is a kernel run that has been loaded onto a machine but not yet
// executed: program assembled, inputs written, and the scaling factors that
// turn machine stats into chip-level results captured. It exists so callers
// that preempt runs (internal/serve) can hold the run's accounting context
// across an arbitrary number of Machine.Run calls, snapshots, and restores:
// PrepareOn once, Run (possibly many times, possibly on a machine restored
// from a snapshot — update Machine to point at it), then Finish exactly
// once with the final stats.
type Prepared struct {
	// Machine executes the run. Callers that restore a snapshot into a
	// different machine must repoint this before calling Finish, which
	// reads output vectors back for checking.
	Machine *machine.Machine

	k      *Kernel
	cfg    RunConfig
	addrs  []controlpath.VRFAddr
	inputs [][]uint64

	units      int
	share      int
	vrfsNeeded int
	simVRFs    int
	simElems   int
	overflow   float64
	roundScale float64
}

// RunOn executes kernel k under cfg on an existing machine, Resetting it
// first so a warm-pool run is byte-identical to a fresh-machine run. The
// machine must have been built with MachineConfigFor (or an equivalent
// spec/mode pair); mismatches are rejected rather than silently simulating
// the wrong chip.
func RunOn(m *machine.Machine, k *Kernel, cfg RunConfig) (*Result, error) {
	p, err := PrepareOn(m, k, cfg)
	if err != nil {
		return nil, err
	}
	run, err := p.Machine.Run()
	if err != nil {
		return nil, fmt.Errorf("workloads: %s on %s/%s: %w", k.Name, cfg.Spec.Name, cfg.Mode, err)
	}
	return p.Finish(run)
}

// PrepareOn loads kernel k under cfg onto m — Reset, program load, input
// vectors — and returns the accounting context Finish needs. It performs
// every pre-run step of RunOn and none of the post-run ones.
func PrepareOn(m *machine.Machine, k *Kernel, cfg RunConfig) (*Prepared, error) {
	if cfg.TotalElements <= 0 {
		return nil, fmt.Errorf("workloads: non-positive element count")
	}
	spec := cfg.Spec
	if m.Spec().Name != spec.Name || m.Mode() != cfg.Mode {
		return nil, fmt.Errorf("workloads: machine built for %s/%s cannot serve %s/%s",
			m.Spec().Name, m.Mode(), spec.Name, cfg.Mode)
	}
	units := spec.MPUs
	if cfg.Mode == machine.ModeBaseline {
		units = spec.BaselineUnits
	}
	share := (cfg.TotalElements + units - 1) / units
	vrfsNeeded := (share + spec.Lanes - 1) / spec.Lanes
	if vrfsNeeded == 0 {
		vrfsNeeded = 1
	}
	capVRFs := spec.VRFsPerMPU()
	if cfg.MaxSimVRFs > 0 && cfg.MaxSimVRFs < capVRFs {
		capVRFs = cfg.MaxSimVRFs
	}
	simVRFs := vrfsNeeded
	if simVRFs > capVRFs {
		simVRFs = capVRFs
	}
	// Energy scales with total array-work (VRF count); time scales with the
	// scheduler's activation rounds, which depend on the thermal limit:
	// RACER's 1-active-VRF clusters serialize, while MIMDRAM and Duality
	// Cache activate everything at once (§VI-C).
	overflow := float64(vrfsNeeded) / float64(simVRFs)
	limit := spec.ActiveVRFsPerRFH
	if cfg.ActiveVRFsOverride > 0 {
		limit = cfg.ActiveVRFsOverride
	}
	rounds := func(vrfs int) int {
		perRFH := (vrfs + spec.RFHsPerMPU - 1) / spec.RFHsPerMPU
		return (perRFH + limit - 1) / limit
	}
	roundScale := float64(rounds(vrfsNeeded)) / float64(rounds(simVRFs))
	simElems := simVRFs * spec.Lanes
	if simElems > share {
		simElems = share
	}

	// Build the SPMD program.
	prog, addrs, err := BuildProgram(k, spec, simVRFs)
	if err != nil {
		return nil, err
	}

	m.Reset()
	if err := m.LoadAll(prog); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := k.Gen(rng, simElems)
	if len(inputs) != k.Inputs {
		return nil, fmt.Errorf("workloads: %s: generator produced %d registers, want %d", k.Name, len(inputs), k.Inputs)
	}
	for reg, vals := range inputs {
		for v := 0; v < simVRFs; v++ {
			lo := v * spec.Lanes
			if lo >= len(vals) {
				break
			}
			hi := lo + spec.Lanes
			if hi > len(vals) {
				hi = len(vals)
			}
			if err := m.WriteVector(0, addrs[v], reg, vals[lo:hi]); err != nil {
				return nil, err
			}
		}
	}

	return &Prepared{
		Machine:    m,
		k:          k,
		cfg:        cfg,
		addrs:      addrs,
		inputs:     inputs,
		units:      units,
		share:      share,
		vrfsNeeded: vrfsNeeded,
		simVRFs:    simVRFs,
		simElems:   simElems,
		overflow:   overflow,
		roundScale: roundScale,
	}, nil
}

// Finish turns the stats of a completed run into a chip-level Result —
// output checking, round/overflow scaling, external-memory streaming, and
// energy totals. st must be the stats Machine.Run returned on completion
// (not a preempted intermediate); the Result keeps the pointer, which Run
// handed over for good.
func (p *Prepared) Finish(st *machine.Stats) (*Result, error) {
	k, cfg, spec, m := p.k, p.cfg, p.cfg.Spec, p.Machine
	units, simVRFs, simElems := p.units, p.simVRFs, p.simElems
	share, vrfsNeeded := p.share, p.vrfsNeeded
	overflow, roundScale := p.overflow, p.roundScale

	checked := 0
	if cfg.Check {
		lane := make([]uint64, k.Inputs)
		for v := 0; v < simVRFs; v++ {
			out, err := m.ReadVector(0, p.addrs[v], k.Out)
			if err != nil {
				return nil, err
			}
			for l := 0; l < spec.Lanes; l++ {
				idx := v*spec.Lanes + l
				if idx >= simElems {
					break
				}
				for r := range lane {
					lane[r] = p.inputs[r][idx]
				}
				want := k.Ref(lane)
				if out[l] != want {
					return nil, fmt.Errorf("workloads: %s on %s/%s: element %d: got %#x, want %#x",
						k.Name, spec.Name, cfg.Mode, idx, out[l], want)
				}
				checked++
			}
		}
	}

	// Replay rounds re-run the ensemble body but pay decode stalls only
	// once (the recipe table stays warm), so scale steady-state cycles by
	// the round factor and add the one-time stalls back.
	steadyCycles := float64(st.Cycles - st.DecodeStalls)
	seconds := (steadyCycles*roundScale + float64(st.DecodeStalls)) / (spec.ClockGHz * 1e9)
	// External streaming applies only to data beyond the MPU's real VRF
	// capacity — not beyond the (smaller) functional-simulation cap, which
	// is a testing knob and only scales time through overflow.
	var streamSec, streamPJ float64
	if spill := vrfsNeeded - spec.VRFsPerMPU(); spill > 0 {
		spillBytes := float64(spill) * float64(spec.Lanes) * 8 *
			float64(k.Inputs+1) * float64(units)
		streamSec = spillBytes / (extMemGBs * 1e9)
		streamPJ = spillBytes * extMemPJPerByte
	}
	seconds += streamSec

	// Chip-side energies scale with total array-work (units × overflow);
	// the single host's energy scales with real time (roundScale).
	host := st.HostEnergyPJ
	joules := ((st.TotalEnergyPJ()-host)*float64(units)*overflow +
		host*roundScale + streamPJ) * 1e-12

	return &Result{
		Kernel:         k.Name,
		Config:         fmt.Sprintf("%s:%s", cfg.Mode, spec.Name),
		Stats:          st,
		Seconds:        seconds,
		Joules:         joules,
		PerMPUElements: share,
		SimElements:    simElems,
		VRFs:           vrfsNeeded,
		Overflow:       overflow,
		RoundScale:     roundScale,
		CheckedLanes:   checked,
	}, nil
}

// GPURun evaluates the kernel on the analytical GPU model.
func GPURun(k *Kernel, m *gpumodel.Model, totalElements int) (gpumodel.Result, error) {
	return m.Run(gpumodel.Profile{
		Name:            k.Name,
		Elements:        totalElements,
		OpsPerElement:   k.GPU.Ops,
		BytesPerElement: k.GPU.Bytes,
		Passes:          k.GPU.Passes,
		Divergence:      k.GPU.Divergence,
		HostBytes:       float64(totalElements) * 8 * float64(k.Inputs+1),
	})
}
