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

// LLMEncode runs a transformer-encoder block end to end in PUM (§VIII-D):
// per-token feed-forward matmuls with ReLU, a residual connection,
// layer normalization, and a softmax head — in Q16 fixed point with tokens
// mapped to vector lanes and feature dimensions to registers. Work is
// data-parallel across a coordinator and workers: the coordinator BROADCASTS
// the weight matrices, SCATTERS token batches, and GATHERS results
// (the Table IV collective patterns; the paper's 130-MPU instance is
// reproduced here at configurable scale).
//
// Model: d = 4 features.
//
//	h = ReLU(W1·x)      (matmul + relu)
//	y = W2·h + x        (matmul + residual)
//	z = LayerNorm(y)    (mean/variance over features, rsqrt)
//	p = Softmax(z)      (max-shifted fixed-point exp + normalize)

const llmD = 4 // feature dimensions

// Register map.
const (
	llmX  = 0  // r0..r3: input features (Q16)
	llmW1 = 4  // r4..r19: W1 row-major (small integers)
	llmW2 = 20 // r20..r35: W2
	llmH  = 36 // r36..r39: hidden
	llmY  = 40 // r40..r43: pre-norm
	llmP  = 0  // outputs overwrite r0..r3 (probabilities, Q16)
	llmS  = 44 // r44..: scratch
)

func emitLLMBlock(b *ezpim.Builder) {
	const (
		q, t, mean, varr, denom = llmS, llmS + 1, llmS + 2, llmS + 3, llmS + 4
		s                       = llmS + 5 // deep scratch (r49..r53)
	)
	b.Const(q, Q)
	// h = ReLU(W1·x)
	for i := 0; i < llmD; i++ {
		h := llmH + i
		b.Mul(llmW1+i*llmD, llmX, h)
		for j := 1; j < llmD; j++ {
			b.Mac(llmW1+i*llmD+j, llmX+j, h)
		}
		b.Relu(h, h)
	}
	// y = W2·h + x
	for i := 0; i < llmD; i++ {
		y := llmY + i
		b.Mul(llmW2+i*llmD, llmH, y)
		for j := 1; j < llmD; j++ {
			b.Mac(llmW2+i*llmD+j, llmH+j, y)
		}
		b.Add(y, llmX+i, y)
	}
	// LayerNorm over the llmD feature registers.
	b.Add(llmY, llmY+1, mean)
	b.Add(mean, llmY+2, mean)
	b.Add(mean, llmY+3, mean)
	b.Const(t, llmD)
	b.Div(mean, t, mean)
	b.Init0(varr)
	for i := 0; i < llmD; i++ {
		emitAbsDiff(b, llmY+i, mean, s, s+1)
		b.Mac(s, s, varr)
	}
	b.Const(t, llmD)
	b.Div(varr, t, varr)
	b.Inc(varr, varr) // +1 avoids a zero denominator
	emitISqrt(b, varr, denom, s)
	b.Inc(denom, denom)
	// z_i = sign(y_i − mean) · |y_i − mean|·Q / denom, written back to llmY.
	for i := 0; i < llmD; i++ {
		y := llmY + i
		emitAbsDiff(b, y, mean, s, s+1)
		b.Mul(s, q, s)
		b.Div(s, denom, s)
		b.Init0(s + 1)
		b.If(ezpim.Lt(y, mean), func() {
			b.Sub(s+1, s, s) // negate
		}, nil)
		b.Mov(s, y)
	}
	// Softmax with max-shift: p_i = e^{z_i − m} normalized, computed as
	// Q²/expFx(m − z_i) over non-negative arguments.
	m := llmS + 10 // r54
	b.Max(llmY, llmY+1, m)
	b.Max(m, llmY+2, m)
	b.Max(m, llmY+3, m)
	// e_i into llmW1..llmW1+3 (weights are dead now).
	for i := 0; i < llmD; i++ {
		e := llmW1 + i
		b.Sub(m, llmY+i, s) // m − z_i ≥ 0
		emitExpFx(b, s, e, s+1)
		b.Mul(q, q, t)
		b.Div(t, e, e) // Q²/expFx
	}
	sum := llmS + 1
	b.Add(llmW1, llmW1+1, sum)
	b.Add(sum, llmW1+2, sum)
	b.Add(sum, llmW1+3, sum)
	for i := 0; i < llmD; i++ {
		b.Mul(llmW1+i, q, s)
		b.Div(s, sum, s)
		b.Mov(s, llmP+i)
	}
}

// refLLMBlock mirrors emitLLMBlock for one token.
func refLLMBlock(x [llmD]uint64, w1, w2 [llmD][llmD]uint64) [llmD]uint64 {
	q := uint64(Q)
	var h, y [llmD]uint64
	for i := 0; i < llmD; i++ {
		var acc uint64
		for j := 0; j < llmD; j++ {
			acc += w1[i][j] * x[j]
		}
		if int64(acc) < 0 {
			acc = 0
		}
		h[i] = acc
	}
	for i := 0; i < llmD; i++ {
		var acc uint64
		for j := 0; j < llmD; j++ {
			acc += w2[i][j] * h[j]
		}
		y[i] = acc + x[i]
	}
	mean := (y[0] + y[1] + y[2] + y[3]) / llmD
	var varr uint64
	for i := 0; i < llmD; i++ {
		d := refAbsDiff(y[i], mean)
		varr += d * d
	}
	varr = varr/llmD + 1
	denom := refISqrt(varr) + 1
	var z [llmD]uint64
	for i := 0; i < llmD; i++ {
		v := refAbsDiff(y[i], mean) * q / denom
		if int64(y[i]) < int64(mean) {
			v = -v
		}
		z[i] = v
	}
	m := z[0]
	for i := 1; i < llmD; i++ {
		if int64(z[i]) > int64(m) {
			m = z[i]
		}
	}
	var e [llmD]uint64
	var sum uint64
	for i := 0; i < llmD; i++ {
		e[i] = q * q / refExpFx(m-z[i])
		sum += e[i]
	}
	var p [llmD]uint64
	for i := 0; i < llmD; i++ {
		p[i] = e[i] * q / sum
	}
	return p
}

// LLMEncodeConfig sizes the run.
type LLMEncodeConfig struct {
	Spec    *backends.Spec
	Mode    machine.Mode
	Workers int // worker MPUs beside the coordinator; 0 means 3
	VRFs    int // token VRFs per participant; 0 means 2
	Seed    int64
	Check   bool

	// Groups replicates the coordinator+workers pipeline: group g occupies
	// MPUs g·(Workers+1) … g·(Workers+1)+Workers and runs an independent
	// batch set. 0 means 1 (the paper's single-pipeline instance). The
	// staging-capacity bound (Workers < VRFsPerRFH) is per coordinator, so
	// groups are how the pipeline scales past it — the MPU-count scaling
	// sweep uses them to reach the full 512-MPU chip.
	Groups int

	// NoTrace forwards to machine.Config: interpret every scheduling round.
	NoTrace bool

	// MachineWorkers forwards to machine.Config.Workers: scheduler
	// goroutines executing participant MPUs concurrently between rendezvous
	// (0 = one per CPU, 1 = sequential; statistics are identical either
	// way).
	MachineWorkers int
}

// normalize applies the config defaults and checks chip capacity.
func (cfg *LLMEncodeConfig) normalize() error {
	if cfg.Workers == 0 {
		cfg.Workers = 3
	}
	if cfg.VRFs == 0 {
		cfg.VRFs = 2
	}
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	if cfg.Groups < 0 {
		return fmt.Errorf("apps: negative group count %d", cfg.Groups)
	}
	spec := cfg.Spec
	if mpus := cfg.Groups * (cfg.Workers + 1); mpus > spec.MPUs {
		return fmt.Errorf("apps: %d MPUs exceed chip capacity %d", mpus, spec.MPUs)
	}
	if cfg.VRFs > spec.RFHsPerMPU {
		return fmt.Errorf("apps: token VRFs %d exceed the %d RF holders", cfg.VRFs, spec.RFHsPerMPU)
	}
	if cfg.Workers >= spec.VRFsPerRFH {
		return fmt.Errorf("apps: %d workers exceed staging capacity", cfg.Workers)
	}
	return nil
}

// llmLayout returns the compute-VRF addresses and the identity RFH pair map
// the collectives use.
func llmLayout(cfg LLMEncodeConfig) ([]controlpath.VRFAddr, []controlpath.RFHPair) {
	computeAddrs := make([]controlpath.VRFAddr, cfg.VRFs)
	for v := range computeAddrs {
		computeAddrs[v] = controlpath.VRFAddr{RFH: uint8(v), VRF: 0}
	}
	var pairs []controlpath.RFHPair
	for v := 0; v < cfg.VRFs; v++ {
		pairs = append(pairs, controlpath.RFHPair{Src: uint8(v), Dst: uint8(v)})
	}
	return computeAddrs, pairs
}

// buildLLMEncodeBuilders constructs one builder per participant MPU for a
// normalized config, indexed by MPU id: group g's coordinator sits at
// g·(Workers+1), its workers right behind it. Groups only ever message
// within themselves, and every coordinator has the lowest id of its group,
// so the lower-ID-sends-first rule holds chip-wide.
func buildLLMEncodeBuilders(cfg LLMEncodeConfig) []*ezpim.Builder {
	computeAddrs, pairs := llmLayout(cfg)
	per := cfg.Workers + 1
	builders := make([]*ezpim.Builder, cfg.Groups*per)
	for g := 0; g < cfg.Groups; g++ {
		base := g * per

		// Coordinator program: broadcast weights + scatter batches, compute
		// its own batch (batch 0), gather results.
		cb := ezpim.NewBuilder()
		for w := 1; w <= cfg.Workers; w++ {
			wID := w
			cb.Send(base+w, pairs, func(t *ezpim.Transfer) {
				for r := 0; r < 2*llmD*llmD; r++ {
					t.Copy(0, llmW1+r, 0, llmW1+r) // broadcast W1/W2
				}
				for f := 0; f < llmD; f++ {
					t.Copy(wID, llmX+f, 0, llmX+f) // scatter batch w
				}
			})
		}
		cb.Ensemble(computeAddrs, func() { emitLLMBlock(cb) })
		for w := 1; w <= cfg.Workers; w++ {
			cb.Recv(base + w)
		}
		builders[base] = cb

		// Worker programs: receive weights+batch, compute, send results back
		// into the coordinator's staging VRFs.
		for w := 1; w <= cfg.Workers; w++ {
			b := ezpim.NewBuilder()
			b.Recv(base)
			b.Ensemble(computeAddrs, func() { emitLLMBlock(b) })
			wID := w
			b.Send(base, pairs, func(t *ezpim.Transfer) {
				for f := 0; f < llmD; f++ {
					t.Copy(0, llmP+f, wID, llmP+f) // gather
				}
			})
			builders[base+w] = b
		}
	}
	return builders
}

// BuildLLMEncodePrograms assembles the participant binaries for cfg without
// running them — the static-verification and inspection entry point. Index i
// is MPU i's program; each group's coordinator precedes its workers.
func BuildLLMEncodePrograms(cfg LLMEncodeConfig) ([]isa.Program, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return ezpim.ProgramSet(buildLLMEncodeBuilders(cfg))
}

// RunLLMEncode executes the encoder block across coordinator+worker groups.
//
// Layout: participant compute VRFs sit at (rfh v, vrf 0) for v < VRFs, so a
// single MEMCPY under the pair map {(v,v)} addresses all of them at once.
// Each group's coordinator stages its batch w's tokens at (rfh v, vrf w).
func RunLLMEncode(cfg LLMEncodeConfig) (*Result, error) {
	spec := cfg.Spec
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	per := cfg.Workers + 1 // participants per group
	mpus := cfg.Groups * per
	lanes := spec.Lanes

	computeAddrs, _ := llmLayout(cfg)
	stageAddr := func(batch, v int) controlpath.VRFAddr {
		return controlpath.VRFAddr{RFH: uint8(v), VRF: uint8(batch)}
	}
	builders := buildLLMEncodeBuilders(cfg)

	m, err := machine.New(machine.Config{Spec: spec, Mode: cfg.Mode, NumMPUs: mpus,
		NoTrace: cfg.NoTrace, Workers: cfg.MachineWorkers})
	if err != nil {
		return nil, err
	}
	for id, b := range builders {
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		if err := m.LoadProgram(id, p); err != nil {
			return nil, err
		}
	}

	// Data: weights (small integers, shared by every group)
	// broadcast-resident on each coordinator's compute VRFs; token features
	// per group and batch.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var w1, w2 [llmD][llmD]uint64
	for i := 0; i < llmD; i++ {
		for j := 0; j < llmD; j++ {
			w1[i][j] = uint64(rng.Intn(4))
			w2[i][j] = uint64(rng.Intn(4))
		}
	}
	nTok := cfg.VRFs * lanes
	xs := make([][][][llmD]uint64, cfg.Groups) // [group][batch][token][feature]
	for g := range xs {
		xs[g] = make([][][llmD]uint64, per)
		for batch := 0; batch < per; batch++ {
			xs[g][batch] = make([][llmD]uint64, nTok)
			for tok := range xs[g][batch] {
				for f := 0; f < llmD; f++ {
					xs[g][batch][tok][f] = uint64(rng.Intn(2 * Q))
				}
			}
		}
	}
	for g := 0; g < cfg.Groups; g++ {
		coord := g * per
		for v := 0; v < cfg.VRFs; v++ {
			a := computeAddrs[v]
			for i := 0; i < llmD; i++ {
				for j := 0; j < llmD; j++ {
					if err := m.WriteVector(coord, a, llmW1+i*llmD+j, broadcastLanes(lanes, w1[i][j])); err != nil {
						return nil, err
					}
					if err := m.WriteVector(coord, a, llmW2+i*llmD+j, broadcastLanes(lanes, w2[i][j])); err != nil {
						return nil, err
					}
				}
			}
		}
		for batch := 0; batch < per; batch++ {
			for v := 0; v < cfg.VRFs; v++ {
				a := computeAddrs[v]
				if batch > 0 {
					a = stageAddr(batch, v)
				}
				for f := 0; f < llmD; f++ {
					vals := make([]uint64, lanes)
					for l := 0; l < lanes; l++ {
						vals[l] = xs[g][batch][v*lanes+l][f]
					}
					if err := m.WriteVector(coord, a, llmX+f, vals); err != nil {
						return nil, err
					}
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
		for g := 0; g < cfg.Groups; g++ {
			coord := g * per
			for batch := 0; batch < per; batch++ {
				for v := 0; v < cfg.VRFs; v++ {
					// Batch 0 results sit in the coordinator's compute VRFs;
					// gathered worker results in its staging VRFs.
					a := computeAddrs[v]
					if batch > 0 {
						a = stageAddr(batch, v)
					}
					var got [llmD][]uint64
					for f := 0; f < llmD; f++ {
						vals, err := m.ReadVector(coord, a, llmP+f)
						if err != nil {
							return nil, err
						}
						got[f] = vals
					}
					for l := 0; l < lanes; l++ {
						tok := v*lanes + l
						want := refLLMBlock(xs[g][batch][tok], w1, w2)
						for f := 0; f < llmD; f++ {
							if got[f][l] != want[f] {
								return nil, fmt.Errorf("apps: llmencode group %d batch %d token %d feature %d: got %d, want %d",
									g, batch, tok, f, got[f][l], want[f])
							}
						}
						checked++
					}
				}
			}
		}
	}

	ez, asm := 0, 0
	for _, b := range builders {
		ez += b.SourceLines()
		asm += b.EmittedInstructions()
	}
	return &Result{
		Name:        "LLMEncode",
		Stats:       st,
		Seconds:     st.TimeSeconds(spec.ClockGHz),
		Joules:      st.TotalEnergyPJ() * 1e-12,
		Checked:     checked,
		MPUs:        mpus,
		EzpimLines:  ez,
		AsmLines:    asm,
		Steps:       []string{"matmul", "softmax", "layernorm", "relu"},
		Collectives: []string{"broadcast", "scatter", "gather"},
	}, nil
}
