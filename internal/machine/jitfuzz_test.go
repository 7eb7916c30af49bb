package machine_test

// FuzzJITParity is the engine's differential oracle: arbitrary bytes are
// shaped into a lint-clean compute-ensemble body, and the body runs twice —
// on the engine (record, lower, replay; compiled kernels on every round)
// and under NoTrace (the reference interpreter) — at each kernel geometry:
// RACER's one full word per plane, SIMDRAM's four, and a 48-lane spec whose
// single word has a tail. Both runs must leave identical register planes in
// every VRF and report identical Stats (engine-strategy counters aside).
// Each body also runs under a deliberately tiny recipe table so the
// recipe-cold replay fallback (ReplayAllHit false) is exercised, and the
// seed corpus includes a body large enough to spill the playback buffer.
//
// A body comes in two shapes. Straight-line, it records once and replays.
// Wrapped in a per-lane countdown loop (CMPGT → SETMASK cond → JUMP_COND),
// it is dynamic: no round replays, every one runs the compiled kernels
// under masks that depend on lane data and shrink as lanes retire.
//
// Run with `go test -fuzz=FuzzJITParity ./internal/machine`.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"mpu/internal/backends"
	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/lint"
	"mpu/internal/machine"
)

// fuzzVRFs activates seven VRFs per ensemble, one per RFH of RACER's eight,
// so with ActiveVRFsOverride 1 each ensemble is one round: at one word per
// plane, a group of four and a group of three run the group kernels. The
// looped shape's per-lane countdowns give the VRFs of a group different
// masks.
const fuzzVRFs = 7

// fuzzRegs bounds the register window the generated bodies touch (and the
// harness seeds).
const fuzzRegs = 16

// The countdown loop's registers sit just above the body's window: the
// per-lane trip count (host-seeded, 0..loopMaxTrips), the constants 0 and 1,
// and the saved live-lane mask. The harness compares them with the window.
const (
	loopCtr = fuzzRegs + iota
	loopZero
	loopOne
	loopLive
	fuzzCompared

	loopMaxTrips = 3
)

// fuzzOps is the datapath subset generated bodies draw from: every
// micro-coded kind the replay kernels execute, via representative ISA ops.
var fuzzOps = []isa.Op{
	isa.ADD, isa.SUB, isa.INC, isa.INIT0, isa.INIT1,
	isa.CMPEQ, isa.CMPGT, isa.CMPLT, isa.CAS, isa.MUX, isa.MAX, isa.MIN,
	isa.AND, isa.NAND, isa.NOR, isa.INV, isa.OR, isa.XOR, isa.XNOR,
	isa.POPC, isa.RELU,
}

// fuzzBody shapes 4 bytes per instruction into a straight-line body:
// datapath ops plus mask manipulation, no control flow.
func fuzzBody(data []byte) []isa.Instr {
	const maxInstrs = 48
	var body []isa.Instr
	for len(data) >= 4 && len(body) < maxInstrs {
		sel, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		switch sel % 16 {
		case 0:
			body = append(body, isa.SetMask(int(a)%fuzzRegs))
		case 1:
			body = append(body, isa.Unmask())
		case 2:
			body = append(body, isa.GetMask(int(a)%fuzzRegs))
		default:
			body = append(body, isa.Instr{
				Op: fuzzOps[int(sel)%len(fuzzOps)],
				A:  uint8(int(a) % fuzzRegs),
				B:  uint8(int(b) % fuzzRegs),
				C:  uint8(int(c) % fuzzRegs),
			})
		}
	}
	return body
}

// fuzzProgram wraps a body into an SPMD ensemble over vrfs register files,
// mirroring workloads.BuildProgram's address layout. With loop set
// the body repeats while a lane's countdown is positive: the body may churn
// the mask freely, so the live-lane mask is saved before it and restored
// after, then live lanes decrement and those reaching zero retire.
func fuzzProgram(spec *backends.Spec, body []isa.Instr, loop bool, vrfs int) (isa.Program, []controlpath.VRFAddr) {
	addrs := make([]controlpath.VRFAddr, vrfs)
	var p isa.Program
	for v := range addrs {
		addrs[v] = controlpath.VRFAddr{
			RFH: uint8(v % spec.RFHsPerMPU),
			VRF: uint8(v / spec.RFHsPerMPU),
		}
		p = append(p, isa.Compute(int(addrs[v].RFH), int(addrs[v].VRF)))
	}
	if !loop {
		p = append(p, body...)
		p = append(p, isa.Unmask(), isa.ComputeDone())
		return p, addrs
	}
	p = append(p,
		isa.Init0(loopZero), isa.Init1(loopOne),
		isa.CmpGt(loopCtr, loopZero), isa.SetMask(isa.RegCond))
	top := len(p)
	p = append(p, isa.GetMask(loopLive))
	p = append(p, body...)
	p = append(p,
		isa.SetMask(loopLive),
		isa.Sub(loopCtr, loopOne, loopCtr),
		isa.CmpGt(loopCtr, loopZero), isa.SetMask(isa.RegCond),
		isa.JumpCond(top),
		isa.Unmask(), isa.ComputeDone())
	return p, addrs
}

// fuzzRun executes prog on a fresh machine and returns its stats plus the
// compared registers of every activated VRF, then holds the machine to the
// no-residue oracle.
func fuzzRun(t *testing.T, spec *backends.Spec, prog isa.Program, addrs []controlpath.VRFAddr,
	rc controlpath.RecipeCacheConfig, noTrace bool, seed int64) (*machine.Stats, [][]uint64) {
	t.Helper()
	m, err := machine.New(machine.Config{
		Spec: spec, Mode: machine.ModeMPU, NumMPUs: 1,
		ActiveVRFsOverride: 1, Recipe: rc, NoTrace: noTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatalf("lint-clean body rejected at load: %v\nprogram:\n%s", err, isa.Disassemble(prog))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, a := range addrs {
		for reg := 0; reg < fuzzRegs; reg++ {
			vals := make([]uint64, spec.Lanes)
			for l := range vals {
				vals[l] = rng.Uint64()
			}
			if err := m.WriteVector(0, a, reg, vals); err != nil {
				t.Fatal(err)
			}
		}
		trips := make([]uint64, spec.Lanes)
		for l := range trips {
			trips[l] = uint64(rng.Intn(loopMaxTrips + 1))
		}
		if err := m.WriteVector(0, a, loopCtr, trips); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("generated body faulted: %v\nprogram:\n%s", err, isa.Disassemble(prog))
	}
	var planes [][]uint64
	for _, a := range addrs {
		for reg := 0; reg < fuzzCompared; reg++ {
			vals, err := m.ReadVector(0, a, reg)
			if err != nil {
				t.Fatal(err)
			}
			planes = append(planes, vals)
		}
	}
	// Whatever the body wrote, through whichever executor, the register
	// files must recycle clean (residue_test.go).
	if n := requireNoResidue(t, spec.Name, m); n != len(addrs) {
		t.Fatalf("%s: no-residue oracle saw %d parked VRFs, want %d", spec.Name, n, len(addrs))
	}
	return st, planes
}

// checkJITParity runs one generated body, straight-line or looped, over
// vrfs register files through the oracle and reports how many (spec, recipe
// table) cells it compared — zero when the linter rejected the program
// everywhere.
func checkJITParity(t *testing.T, data []byte, loop bool, vrfs int) (compared int) {
	t.Helper()
	body := fuzzBody(data)
	if len(body) == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write(data)
	seed := int64(h.Sum64() >> 1)
	recipes := []controlpath.RecipeCacheConfig{
		{}, // defaults: replay serves from a warm recipe table
		{CapacityMicroOps: 1, PointerTable: true, TemplateLookup: true}, // recipe-cold fallback
	}
	for _, spec := range []*backends.Spec{backends.RACER(), backends.SIMDRAM(), fuzzSpec()} {
		prog, addrs := fuzzProgram(spec, body, loop, vrfs)
		if !lint.Lint(prog, lint.Options{Spec: spec}).Ok() {
			continue
		}
		for ri, rc := range recipes {
			engStats, engPlanes := fuzzRun(t, spec, prog, addrs, rc, false, seed)
			notraceStats, notracePlanes := fuzzRun(t, spec, prog, addrs, rc, true, seed)
			name := spec.Name
			if ri == 1 {
				name += "/recipe-cold"
			}
			if loop {
				name += "/loop"
				if engStats.TraceFallbacks == 0 || engStats.TraceHits != 0 {
					t.Fatalf("%s: dynamic body ran %d fallback and %d replayed rounds; want every round interpreted",
						name, engStats.TraceFallbacks, engStats.TraceHits)
				}
			}
			compared++
			requireParity(t, name, engStats, notraceStats)
			for i := range engPlanes {
				for l := range engPlanes[i] {
					if engPlanes[i][l] != notracePlanes[i][l] {
						t.Fatalf("%s: plane %d lane %d diverges: engine=%#x notrace=%#x\nprogram:\n%s",
							name, i, l, engPlanes[i][l], notracePlanes[i][l], isa.Disassemble(prog))
					}
				}
			}
		}
	}
	return compared
}

// jitSeed is one corpus entry: the body bytes and the shape they run in.
type jitSeed struct {
	data []byte
	loop bool
}

// jitSeedCorpus returns hand-shaped inputs covering the replay edge cases:
// mask churn, every datapath family, a playback-buffer spill (a body whose
// micro-op expansion exceeds the 1024-op playback capacity), a
// single-instruction minimal body, and the mask-churn body inside the
// countdown loop (its own SETMASK/UNMASK fight the loop's lane mask).
func jitSeedCorpus() []jitSeed {
	instr := func(sel, a, b, c byte) []byte { return []byte{sel, a, b, c} }
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, ch := range chunks {
			out = append(out, ch...)
		}
		return out
	}
	// Mask churn interleaved with compares and logic (selector math: sel%16
	// picks the step kind, sel%len(fuzzOps) picks the datapath op).
	masky := cat(
		instr(5, 0, 1, 2),  // CMPEQ sets cond
		instr(0, 2, 0, 0),  // SETMASK
		instr(12, 0, 1, 3), // AND under mask
		instr(2, 4, 0, 0),  // GETMASK
		instr(1, 0, 0, 0),  // UNMASK
		instr(0, 4, 0, 0),  // SETMASK from saved mask
		instr(17, 1, 2, 5), // XOR
		instr(1, 0, 0, 0),
	)
	// Every selector value once: sweeps the full fuzzOps table.
	var sweep []byte
	for sel := byte(0); sel < 32; sel++ {
		sweep = append(sweep, instr(sel, sel, sel+1, sel+2)...)
	}
	// Playback spill: 40 word-width adds expand far past 1024 micro-ops
	// (sel 84 → datapath ADD).
	var spill []byte
	for i := byte(0); i < 40; i++ {
		spill = append(spill, instr(84, i%8, (i+1)%8, (i+2)%8)...)
	}
	return []jitSeed{
		{data: masky},
		{data: sweep},
		{data: spill},
		{data: instr(7, 1, 2, 3)}, // minimal single-instruction body
		{data: masky, loop: true},
	}
}

func FuzzJITParity(f *testing.F) {
	for _, s := range jitSeedCorpus() {
		f.Add(s.data, s.loop)
	}
	f.Fuzz(func(t *testing.T, data []byte, loop bool) {
		checkJITParity(t, data, loop, fuzzVRFs)
	})
}

// TestJITParityRandom drives the same oracle from a deterministic PRNG so
// plain `go test` exercises it without the fuzz engine. The seed corpus also
// runs at six VRFs, a group of four and a group of two.
func TestJITParityRandom(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	rng := rand.New(rand.NewSource(81))
	looped := 0
	for i := 0; i < n; i++ {
		buf := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(buf)
		checkJITParity(t, buf, false, fuzzVRFs)
		looped += checkJITParity(t, buf, true, fuzzVRFs)
	}
	for _, vrfs := range []int{fuzzVRFs, 6} {
		for _, s := range jitSeedCorpus() {
			if checkJITParity(t, s.data, s.loop, vrfs) == 0 {
				t.Errorf("seed corpus body (loop=%v, %d VRFs) was rejected by the linter on every spec", s.loop, vrfs)
			}
		}
	}
	if looped == 0 {
		t.Error("no random body survived lint inside the countdown loop: the dynamic shape went untested")
	}
}
