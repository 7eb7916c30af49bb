package machine

import (
	"runtime"
	"testing"
	"time"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/vrf"
)

// TestOneChunkRoundAllocs pins the cost of a round too small to fan out on a
// machine whose budget allows a helper: sim-dynamic's shape, three RACER VRFs
// interpreted through a data-dependent loop. Every kernel call forms one
// chunk and must be the plain vrf.RunCompiledGroups call, with no job, no
// closure and no allocation.
func TestOneChunkRoundAllocs(t *testing.T) {
	spec := backends.RACER()
	m, err := New(Config{Spec: spec, Mode: ModeMPU, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// countdownSrc's loop over three VRFs, one per RFH: one round of three.
	const src = `
	COMPUTE rfh0 vrf0
	COMPUTE rfh1 vrf0
	COMPUTE rfh2 vrf0
	INIT0 r2
	INIT1 r3
	INIT0 r1
	CMPGT r0 r2
	SETMASK cond
loop:
	SUB r0 r3 r0
	INC r1 r1
	CMPGT r0 r2
	SETMASK cond
	JUMP_COND loop
	UNMASK
	COMPUTE_DONE
`
	if err := m.LoadAll(mustAssemble(t, src)); err != nil {
		t.Fatal(err)
	}
	c := m.mpus[0]
	vals := make([]uint64, spec.Lanes)
	for i := range vals {
		vals[i] = uint64(i % 9)
	}
	var batch []*vrf.VRF
	for rfh := 0; rfh < 3; rfh++ {
		v := c.vrfAt(addr(rfh, 0))
		v.WriteReg(0, vals)
		batch = append(batch, v)
	}
	// What Run sets up for a phase with one runnable core.
	m.crew.begin(m.workers())
	m.fan = &m.crew
	defer m.crew.stop()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.runBody(bodyPos{pc: 3}, batch, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an interpreted 3-VRF round allocates %v times", allocs)
	}
	if n := m.crew.live.Load(); n != 0 {
		t.Errorf("one-chunk rounds started %d helpers", n)
	}
}

// TestFannedRoundAllocs pins the cost of a round that fans out, with helpers
// that park between rounds: eight RACER VRFs (two groups) multiplied by one
// kernel call, at a chunk floor of 1 and no spin, so the helper parks after
// every call and the next call wakes it. The one allocation per call is its
// fanJob, as before helpers parked; the wake is a non-blocking send into a
// channel New made.
func TestFannedRoundAllocs(t *testing.T) {
	defer SetChunkFloor(1)()
	defer SetHelperSpins(0)()
	defer runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	spec := backends.RACER()
	m, err := New(Config{Spec: spec, Mode: ModeMPU, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{}
	for rfh := 0; rfh < 8; rfh++ {
		prog = append(prog, isa.Instr{Op: isa.COMPUTE, A: uint8(rfh)})
	}
	prog = append(prog, isa.Mul(0, 1, 2), isa.Instr{Op: isa.COMPUTEDONE})
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	c := m.mpus[0]
	vals := make([]uint64, spec.Lanes)
	for i := range vals {
		vals[i] = uint64(i*i + 3)
	}
	var batch []*vrf.VRF
	for rfh := 0; rfh < 8; rfh++ {
		v := c.vrfAt(addr(rfh, 0))
		v.WriteReg(0, vals)
		v.WriteReg(1, vals)
		batch = append(batch, v)
	}
	m.crew.begin(m.workers())
	m.fan = &m.crew
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.runBody(bodyPos{pc: 8}, batch, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a fanned-out 8-VRF round allocates %v times, want at most its fanJob", allocs)
	}
	if m.crew.live.Load() != 1 {
		t.Fatalf("%d helpers live, want 1", m.crew.live.Load())
	}
	// Between rounds the helper parks.
	for deadline := time.Now().Add(5 * time.Second); m.crew.parked.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the helper never parked between rounds")
		}
		runtime.Gosched()
	}
	// stop wakes the parked helper, which then exits.
	m.crew.stop()
	for deadline := time.Now().Add(5 * time.Second); m.crew.live.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers live after stop", m.crew.live.Load())
		}
		runtime.Gosched()
	}
}
