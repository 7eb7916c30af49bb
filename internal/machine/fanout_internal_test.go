package machine

import (
	"testing"

	"mpu/internal/backends"
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
	m.crew.limit = m.workers() - 1
	m.fan = &m.crew
	defer m.crew.stop()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.runBody(3, batch, nil); err != nil {
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
