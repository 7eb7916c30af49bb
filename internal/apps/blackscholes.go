package apps

import (
	"fmt"
	"math/rand"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/ezpim"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

// BlackScholes prices European call options in Q16 fixed point, entirely in
// PUM (§VIII-D): per-lane ln/sqrt/exp software subroutines feed the logistic
// CDF, exactly the pattern for which the paper reports MPU slowdowns against
// GPU hardware transcendentals. The option batch is split across two MPUs
// (Table IV); MPU1 gathers its results back to MPU0.
//
// Register map (per lane): r0=S, r1=K, r2=σ (all Q16, S ≥ K so ln(S/K) ≥ 0),
// broadcast: r3=T, r4=rT, r5=e^(−rT); result: r6=price (Q16).

const (
	bsS, bsK, bsSigma = 0, 1, 2
	bsT, bsRT, bsDisc = 3, 4, 5
	bsPrice           = 6
	bsScratch         = 10 // r10.. free
)

func emitBlackScholes(b *ezpim.Builder) {
	const (
		z, lnSK, sig2T, c, denom, d1, d2, n1, n2, q, t = 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20
		s                                              = 24 // deep scratch for subroutine emitters
	)
	b.Const(q, Q)
	// z = S·Q/K − Q
	b.Mul(bsS, q, z)
	b.Div(z, bsK, z)
	b.Sub(z, q, z)
	emitLn1pFx(b, z, lnSK, s)
	// σ²T
	b.Mul(bsSigma, bsSigma, sig2T)
	b.Div(sig2T, q, sig2T)
	b.Mul(sig2T, bsT, sig2T)
	b.Div(sig2T, q, sig2T)
	// c = rT + σ²T/2
	b.Const(t, 2)
	b.Div(sig2T, t, c)
	b.Add(bsRT, c, c)
	// denom = σ√T = sqrtFx(σ²T)
	emitSqrtFx(b, sig2T, denom, s)
	// d1 = (lnSK + c)·Q/denom; d2 = d1 − denom (clamped at 0)
	b.Add(lnSK, c, d1)
	b.Mul(d1, q, d1)
	b.Div(d1, denom, d1)
	b.Init0(t)
	b.Mov(t, d2)
	b.If(ezpim.Gt(d1, denom), func() {
		b.Sub(d1, denom, d2)
	}, nil)
	// CDFs and price = S·N1/Q − K·disc·N2/Q²
	emitLogisticCDF(b, d1, n1, s)
	emitLogisticCDF(b, d2, n2, s)
	b.Mul(bsS, n1, bsPrice)
	b.Div(bsPrice, q, bsPrice)
	b.Mul(bsK, bsDisc, t)
	b.Div(t, q, t)
	b.Mul(t, n2, t)
	b.Div(t, q, t)
	// price could round below the discounted strike leg; clamp at 0.
	b.If(ezpim.Gt(bsPrice, t), func() {
		b.Sub(bsPrice, t, bsPrice)
	}, func() {
		b.Init0(bsPrice)
	})
}

// refBlackScholes mirrors emitBlackScholes lane-exactly.
func refBlackScholes(S, K, sigma, T, rT, disc uint64) uint64 {
	q := uint64(Q)
	z := S*q/K - q
	lnSK := refLn1pFx(z)
	sig2T := sigma * sigma / q * T / q
	c := sig2T/2 + rT
	denom := refSqrtFx(sig2T)
	d1 := (lnSK + c) * q / denom
	var d2 uint64
	if int64(d1) > int64(denom) {
		d2 = d1 - denom
	}
	n1 := refLogisticCDF(d1)
	n2 := refLogisticCDF(d2)
	lhs := S * n1 / q
	rhs := K * disc / q * n2 / q
	if int64(lhs) > int64(rhs) {
		return lhs - rhs
	}
	return 0
}

// BlackScholesConfig sizes the run.
type BlackScholesConfig struct {
	Spec    *backends.Spec
	Mode    machine.Mode
	Options int // per MPU half; lanes-rounded
	Seed    int64
	Check   bool

	// NoTrace forwards to machine.Config: interpret every scheduling round.
	NoTrace bool

	// MachineWorkers forwards to machine.Config.Workers: scheduler
	// goroutines executing the two MPUs concurrently between rendezvous
	// (0 = one per CPU, 1 = sequential; statistics are identical either
	// way).
	MachineWorkers int
}

// bsLayout returns the VRF count and addresses for an option batch, or an
// error when the batch exceeds one MPU's capacity.
func bsLayout(cfg BlackScholesConfig) (int, []controlpath.VRFAddr, error) {
	spec := cfg.Spec
	lanes := spec.Lanes
	options := cfg.Options
	if options <= 0 {
		options = lanes
	}
	vrfs := (options + lanes - 1) / lanes
	if vrfs > spec.VRFsPerMPU() {
		return 0, nil, fmt.Errorf("apps: option batch needs %d VRFs per MPU, have %d", vrfs, spec.VRFsPerMPU())
	}
	addrs := make([]controlpath.VRFAddr, vrfs)
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{RFH: uint8(v % spec.RFHsPerMPU), VRF: uint8(v / spec.RFHsPerMPU)}
	}
	return vrfs, addrs, nil
}

// buildBlackScholesBuilder constructs MPU0's (worker=false) or MPU1's
// (worker=true) builder.
func buildBlackScholesBuilder(spec *backends.Spec, vrfs int, addrs []controlpath.VRFAddr, worker bool) *ezpim.Builder {
	b := ezpim.NewBuilder()
	b.Ensemble(addrs, func() { emitBlackScholes(b) })
	// Gather over every RFH pair at once: one MEMCPY per distinct VRF
	// index moves that register for all pairs in the target map.
	var pairs []controlpath.RFHPair
	for r := 0; r < spec.RFHsPerMPU; r++ {
		pairs = append(pairs, controlpath.RFHPair{Src: uint8(r), Dst: uint8(r)})
	}
	maxVRFID := (vrfs - 1) / spec.RFHsPerMPU
	if worker {
		// Send prices back to MPU0's staging register r7.
		b.Send(0, pairs, func(t *ezpim.Transfer) {
			for id := 0; id <= maxVRFID; id++ {
				t.Copy(id, bsPrice, id, 7)
			}
		})
	} else {
		b.Recv(1)
	}
	return b
}

// BuildBlackScholesPrograms assembles the two MPU binaries (MPU0 first)
// without running them.
func BuildBlackScholesPrograms(cfg BlackScholesConfig) ([]isa.Program, error) {
	vrfs, addrs, err := bsLayout(cfg)
	if err != nil {
		return nil, err
	}
	return ezpim.ProgramSet([]*ezpim.Builder{
		buildBlackScholesBuilder(cfg.Spec, vrfs, addrs, false),
		buildBlackScholesBuilder(cfg.Spec, vrfs, addrs, true),
	})
}

// RunBlackScholes executes the application and verifies it.
func RunBlackScholes(cfg BlackScholesConfig) (*Result, error) {
	spec := cfg.Spec
	lanes := spec.Lanes
	vrfs, addrs, err := bsLayout(cfg)
	if err != nil {
		return nil, err
	}

	b0 := buildBlackScholesBuilder(spec, vrfs, addrs, false)
	b1 := buildBlackScholesBuilder(spec, vrfs, addrs, true)
	p0, err := b0.Program()
	if err != nil {
		return nil, err
	}
	p1, err := b1.Program()
	if err != nil {
		return nil, err
	}

	m, err := machine.New(machine.Config{Spec: spec, Mode: cfg.Mode, NumMPUs: 2,
		NoTrace: cfg.NoTrace, Workers: cfg.MachineWorkers})
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(0, p0); err != nil {
		return nil, err
	}
	if err := m.LoadProgram(1, p1); err != nil {
		return nil, err
	}

	// Generate and load inputs: S in [K, 1.4K], K around 1.0, σ in
	// [0.1, 0.4], T = 1, r = 5%.
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := vrfs * lanes
	type laneIn struct{ S, K, sigma uint64 }
	ins := make([][]laneIn, 2)
	const (
		tQ    = Q
		rTQ   = Q / 20 // rT = 0.05
		discQ = 62347  // e^(-0.05) in Q16
	)
	for mpu := 0; mpu < 2; mpu++ {
		ins[mpu] = make([]laneIn, n)
		for i := range ins[mpu] {
			K := uint64(Q/2 + rng.Intn(Q))
			S := K + uint64(rng.Intn(int(K)/3+1))
			sigma := uint64(Q/10 + rng.Intn(3*Q/10))
			ins[mpu][i] = laneIn{S: S, K: K, sigma: sigma}
		}
		for v := 0; v < vrfs; v++ {
			sv := make([]uint64, lanes)
			kv := make([]uint64, lanes)
			gv := make([]uint64, lanes)
			for l := 0; l < lanes; l++ {
				in := ins[mpu][v*lanes+l]
				sv[l], kv[l], gv[l] = in.S, in.K, in.sigma
			}
			for reg, vals := range map[int][]uint64{
				bsS: sv, bsK: kv, bsSigma: gv,
				bsT:    broadcastLanes(lanes, tQ),
				bsRT:   broadcastLanes(lanes, rTQ),
				bsDisc: broadcastLanes(lanes, discQ),
			} {
				if err := m.WriteVector(mpu, addrs[v], reg, vals); err != nil {
					return nil, err
				}
			}
		}
	}

	st, err := m.Run()
	if err != nil {
		return nil, err
	}

	checked := 0
	if cfg.Check {
		for mpu := 0; mpu < 2; mpu++ {
			outReg := bsPrice
			readMPU := mpu
			if mpu == 1 {
				// MPU1's prices were gathered into MPU0 r7 (RFH0 VRFs).
				outReg = 7
				readMPU = 0
			}
			for v := 0; v < vrfs; v++ {
				got, err := m.ReadVector(readMPU, addrs[v], outReg)
				if err != nil {
					return nil, err
				}
				for l := 0; l < lanes; l++ {
					in := ins[mpu][v*lanes+l]
					want := refBlackScholes(in.S, in.K, in.sigma, tQ, rTQ, discQ)
					if got[l] != want {
						return nil, fmt.Errorf("apps: blackscholes mpu%d lane %d: got %d, want %d", mpu, v*lanes+l, got[l], want)
					}
					checked++
				}
			}
		}
	}

	return &Result{
		Name:        "BlackScholes",
		Stats:       st,
		Seconds:     st.TimeSeconds(spec.ClockGHz),
		Joules:      st.TotalEnergyPJ() * 1e-12,
		Checked:     checked,
		MPUs:        2,
		EzpimLines:  b0.SourceLines() + b1.SourceLines(),
		AsmLines:    b0.EmittedInstructions() + b1.EmittedInstructions(),
		Steps:       []string{"sqrt", "exp", "norm"},
		Collectives: []string{"CDF gather"},
	}, nil
}

func broadcastLanes(n int, v uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
