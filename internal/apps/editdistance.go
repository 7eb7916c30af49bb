package apps

import (
	"fmt"
	"math/rand"

	"mpu/internal/backends"
	"mpu/internal/ezpim"
	"mpu/internal/isa"
	"mpu/internal/machine"
)

// EditDistance is the bitap-style genome-read matcher (§VIII-D): each lane
// holds one 64-bit encoded reference chunk, and query reads flow systolically
// around a ring of MPUs. At every step each MPU scores its resident chunks
// against the visiting queries with pure bitwise comparisons — XOR, shifted
// XOR (alignment slack, the bitap spirit), and popcounts — keeps the
// running minimum, and forwards the queries to its ring successor.
//
// The constant ring traffic is exactly the communication pattern that makes
// the Baseline configuration live on the host CPU (Fig. 15's off-chip bar).
//
// Register map: r0 = resident chunk, r1 = visiting query, r2 = best score,
// r3 = incoming staging, r4.. scratch.

const (
	edChunk, edQuery, edBest, edStage = 0, 1, 2, 3
	shiftPenalty                      = 3
)

// emitEditStep scores the visiting query against the resident chunk and
// folds it into the running minimum.
func emitEditStep(b *ezpim.Builder) {
	const (
		x, d, pen, a = 4, 5, 6, 7
	)
	// d = popc(query ^ chunk)
	b.Xor(edQuery, edChunk, x)
	b.Popc(x, d)
	// shifted alignment 1: popc((query<<1) ^ chunk) + penalty
	b.Const(pen, shiftPenalty)
	b.LShift(edQuery, a)
	b.Xor(a, edChunk, x)
	b.Popc(x, x)
	b.Add(x, pen, x)
	b.Min(d, x, d)
	// shifted alignment 2: popc((query<<2) ^ chunk) + 2·penalty
	b.LShift(a, a)
	b.Xor(a, edChunk, x)
	b.Popc(x, x)
	b.Add(x, pen, x)
	b.Add(x, pen, x)
	b.Min(d, x, d)
	b.Min(edBest, d, edBest)
}

// refEditStep mirrors emitEditStep.
func refEditStep(chunk, query, best uint64) uint64 {
	pc := func(x uint64) uint64 {
		var n uint64
		for ; x != 0; x >>= 1 {
			n += x & 1
		}
		return n
	}
	d := pc(query ^ chunk)
	if v := pc(query<<1^chunk) + shiftPenalty; v < d {
		d = v
	}
	if v := pc(query<<2^chunk) + 2*shiftPenalty; v < d {
		d = v
	}
	if d < best {
		return d
	}
	return best
}

// EditDistanceConfig sizes the run.
type EditDistanceConfig struct {
	Spec  *backends.Spec
	Mode  machine.Mode
	MPUs  int // ring size (even); 0 means 8
	VRFs  int // VRFs per MPU holding reads; 0 means 4
	Seed  int64
	Check bool

	// Steps caps the systolic rotation: queries visit Steps consecutive
	// ring positions instead of completing the full circle. 0 means MPUs
	// (the full rotation — the paper's configuration). The MPU-count
	// scaling sweep pins Steps so per-MPU work stays constant while the
	// ring grows.
	Steps int

	// NoTrace forwards to machine.Config: run the reference interpreter, with
	// no ensemble traces and no compiled kernels.
	NoTrace bool

	// MachineWorkers forwards to machine.Config.Workers: scheduler
	// goroutines executing ring positions concurrently between rendezvous
	// (0 = one per CPU, 1 = sequential; statistics are identical either
	// way).
	MachineWorkers int
}

// normalize applies the ring defaults and checks chip capacity.
func (cfg *EditDistanceConfig) normalize() error {
	if cfg.Spec == nil {
		return fmt.Errorf("apps: editdistance needs a Spec")
	}
	if cfg.MPUs == 0 {
		cfg.MPUs = 8
	}
	if cfg.MPUs%2 != 0 || cfg.MPUs < 2 {
		return fmt.Errorf("apps: editdistance ring size %d must be even and ≥ 2", cfg.MPUs)
	}
	if cfg.MPUs > cfg.Spec.MPUs {
		return fmt.Errorf("apps: ring size %d exceeds chip MPUs %d", cfg.MPUs, cfg.Spec.MPUs)
	}
	if cfg.Steps == 0 {
		cfg.Steps = cfg.MPUs
	}
	if cfg.Steps < 1 || cfg.Steps > cfg.MPUs {
		return fmt.Errorf("apps: editdistance steps %d outside [1,%d]", cfg.Steps, cfg.MPUs)
	}
	if cfg.VRFs == 0 {
		cfg.VRFs = 4
	}
	if cfg.VRFs < 1 || cfg.VRFs > cfg.Spec.VRFsPerMPU() {
		return fmt.Errorf("apps: %d VRFs per MPU outside [1,%d]", cfg.VRFs, cfg.Spec.VRFsPerMPU())
	}
	return nil
}

// EmitEditDistanceMPU emits the program of ring position id into b: steps
// systolic steps around a ring of mpus positions, each scoring the visiting
// queries against vrfs resident-read VRFs and passing the queries on. Even
// positions send before receiving, odd ones receive first (ring deadlock
// avoidance, the lower-ID-sends-first rule of §V-B). RunEditDistance and
// the FBP EDStep component both emit through it.
func EmitEditDistanceMPU(b *ezpim.Builder, spec *backends.Spec, id, mpus, vrfs, steps int) {
	addrs, pairs := spreadLayout(spec, vrfs)
	maxVRFID := (vrfs - 1) / spec.RFHsPerMPU
	next := (id + 1) % mpus
	prev := (id + mpus - 1) % mpus
	for step := 0; step < steps; step++ {
		b.Ensemble(addrs, func() { emitEditStep(b) })
		send := func() {
			b.Send(next, pairs, func(t *ezpim.Transfer) {
				for v := 0; v <= maxVRFID; v++ {
					t.Copy(v, edQuery, v, edStage)
				}
			})
		}
		recv := func() { b.Recv(prev) }
		if id%2 == 0 {
			send()
			recv()
		} else {
			recv()
			send()
		}
		b.Ensemble(addrs, func() { b.Mov(edStage, edQuery) })
	}
}

// editDistanceBuilders emits one builder per ring position of a normalized
// config.
func editDistanceBuilders(cfg EditDistanceConfig) []*ezpim.Builder {
	builders := make([]*ezpim.Builder, cfg.MPUs)
	for id := range builders {
		builders[id] = ezpim.NewBuilder()
		EmitEditDistanceMPU(builders[id], cfg.Spec, id, cfg.MPUs, cfg.VRFs, cfg.Steps)
	}
	return builders
}

// BuildEditDistancePrograms assembles the per-ring-position binaries without
// running them.
func BuildEditDistancePrograms(cfg EditDistanceConfig) ([]isa.Program, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// ProgramSet runs the commlint composition over the finished ring, so a
	// mis-phased send/recv schedule fails here with a counterexample rather
	// than deadlocking the machine.
	return ezpim.ProgramSet(editDistanceBuilders(cfg))
}

// RunEditDistance executes the systolic application and verifies it.
func RunEditDistance(cfg EditDistanceConfig) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	spec := cfg.Spec
	lanes := spec.Lanes
	addrs, _ := spreadLayout(spec, cfg.VRFs)
	m, res, err := load(spec, cfg.Mode, cfg.NoTrace, cfg.MachineWorkers, editDistanceBuilders(cfg))
	if err != nil {
		return nil, err
	}

	// Load reference chunks and initial queries.
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.VRFs * lanes
	chunks := make([][]uint64, cfg.MPUs)
	queries := make([][]uint64, cfg.MPUs)
	for id := 0; id < cfg.MPUs; id++ {
		chunks[id] = make([]uint64, n)
		queries[id] = make([]uint64, n)
		for i := range chunks[id] {
			chunks[id][i] = rng.Uint64()
			queries[id][i] = rng.Uint64()
		}
		for v := 0; v < cfg.VRFs; v++ {
			lo := v * lanes
			if err := m.WriteVector(id, addrs[v], edChunk, chunks[id][lo:lo+lanes]); err != nil {
				return nil, err
			}
			if err := m.WriteVector(id, addrs[v], edQuery, queries[id][lo:lo+lanes]); err != nil {
				return nil, err
			}
			if err := m.WriteVector(id, addrs[v], edBest, broadcastLanes(lanes, 1<<20)); err != nil {
				return nil, err
			}
		}
	}

	if err := run(m, res, spec); err != nil {
		return nil, err
	}

	if cfg.Check {
		// Reference: the query batch starting at MPU q visits MPUs
		// q, q+1, ... in order; chunk lane i of MPU id sees query lane i
		// of batch (id - step) mod MPUs at step `step`.
		for id := 0; id < cfg.MPUs; id++ {
			want := make([]uint64, n)
			for i := range want {
				want[i] = 1 << 20
			}
			for step := 0; step < cfg.Steps; step++ {
				batch := (id - step + cfg.MPUs) % cfg.MPUs
				for i := range want {
					want[i] = refEditStep(chunks[id][i], queries[batch][i], want[i])
				}
			}
			for v := 0; v < cfg.VRFs; v++ {
				got, err := m.ReadVector(id, addrs[v], edBest)
				if err != nil {
					return nil, err
				}
				for l := 0; l < lanes; l++ {
					i := v*lanes + l
					if got[l] != want[i] {
						return nil, fmt.Errorf("apps: editdistance mpu%d lane %d: got %d, want %d", id, i, got[l], want[i])
					}
					res.Checked++
				}
			}
		}
	}

	res.Name = "EditDistance"
	res.Steps = []string{"bitwise comparisons"}
	res.Collectives = []string{"systolic ring"}
	return res, nil
}
