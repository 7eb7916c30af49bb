package apps

import (
	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/ezpim"
	"mpu/internal/machine"
)

// Result summarizes one end-to-end application run.
type Result struct {
	Name    string
	Stats   *machine.Stats
	Seconds float64
	Joules  float64
	Checked int // lanes verified against the Go reference

	MPUs       int
	EzpimLines int // high-level statements (Table IV "ezpim" column)
	AsmLines   int // emitted MPU instructions (Table IV "Baseline" proxy)

	Steps       []string // compute steps, as listed in Table IV
	Collectives []string // collective-communication patterns
}

// Breakdown returns the Fig. 15 execution-time split: MPU computation,
// on-chip inter-MPU communication, and off-chip CPU communication, as
// fractions of their sum.
func (r *Result) Breakdown() (compute, interMPU, offchip float64) {
	c := float64(r.Stats.ComputeCycles)
	n := float64(r.Stats.InterMPUCycles + r.Stats.TransferCycles)
	o := float64(r.Stats.OffloadCycles)
	total := c + n + o
	if total == 0 {
		return 0, 0, 0
	}
	return c / total, n / total, o / total
}

// load finalizes one builder per MPU onto a new machine and returns it with
// a Result that carries the set's Table IV line counts.
func load(spec *backends.Spec, mode machine.Mode, noTrace bool, workers int, builders []*ezpim.Builder) (*machine.Machine, *Result, error) {
	m, err := machine.New(machine.Config{Spec: spec, Mode: mode, NumMPUs: len(builders),
		NoTrace: noTrace, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	res := &Result{MPUs: len(builders)}
	for id, b := range builders {
		p, err := b.Program()
		if err != nil {
			return nil, nil, err
		}
		if err := m.LoadProgram(id, p); err != nil {
			return nil, nil, err
		}
		res.EzpimLines += b.SourceLines()
		res.AsmLines += b.EmittedInstructions()
	}
	return m, res, nil
}

// run executes the loaded machine and records its statistics in res.
func run(m *machine.Machine, res *Result, spec *backends.Spec) error {
	st, err := m.Run()
	if err != nil {
		return err
	}
	res.Stats = st
	res.Seconds = st.TimeSeconds(spec.ClockGHz)
	res.Joules = st.TotalEnergyPJ() * 1e-12
	return nil
}

// spreadLayout places vrfs VRFs round-robin over the RF holders (VRF v at
// holder v mod RFHsPerMPU, index v / RFHsPerMPU) and returns them with the
// identity pair map over every holder.
func spreadLayout(spec *backends.Spec, vrfs int) ([]controlpath.VRFAddr, []controlpath.RFHPair) {
	addrs := make([]controlpath.VRFAddr, vrfs)
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{RFH: uint8(v % spec.RFHsPerMPU), VRF: uint8(v / spec.RFHsPerMPU)}
	}
	pairs := make([]controlpath.RFHPair, spec.RFHsPerMPU)
	for r := range pairs {
		pairs[r] = controlpath.RFHPair{Src: uint8(r), Dst: uint8(r)}
	}
	return addrs, pairs
}

// ColumnLayout places vrfs VRFs at index 0 of RF holders 0..vrfs-1 and
// returns them with the identity pair map over those holders, so one MEMCPY
// moves a register of every VRF at once. llmencode and the FBP streaming
// components use it.
func ColumnLayout(vrfs int) ([]controlpath.VRFAddr, []controlpath.RFHPair) {
	addrs := make([]controlpath.VRFAddr, vrfs)
	pairs := make([]controlpath.RFHPair, vrfs)
	for v := 0; v < vrfs; v++ {
		addrs[v] = controlpath.VRFAddr{RFH: uint8(v), VRF: 0}
		pairs[v] = controlpath.RFHPair{Src: uint8(v), Dst: uint8(v)}
	}
	return addrs, pairs
}

func broadcastLanes(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
