package machine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/recipe"
	"mpu/internal/vrf"
)

// TestRoundSplitShape pins where crew.split cuts a round into VRF ranges, at
// RACER's one word per plane and the production chunk floor. sim-dynamic's
// rounds are three VRFs, and almost all their micro-ops are in gcd's RDIV
// calls; crc32's largest call is 1,409 micro-ops.
func TestRoundSplitShape(t *testing.T) {
	caps := backends.RACER().Caps
	count := func(in isa.Instr) uint64 {
		_, rs, err := recipe.ExpandResolved(caps, in)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(len(rs))
	}
	rdiv, mul, add := count(isa.RDiv(3, 4, 6)), count(isa.Mul(0, 1, 2)), count(isa.Add(0, 1, 2))
	if rdiv != 127296 || mul != 50112 || add != 1345 {
		t.Fatalf("RACER's RDIV, MUL and ADD expand to %d, %d and %d micro-ops, want 127296, 50112 and 1345", rdiv, mul, add)
	}
	const crc32 = 1409
	for _, tc := range []struct {
		name    string
		workers int
		ops     uint64
		width   int
		n       int
		want    []int
	}{
		{"RDIV x3", 2, rdiv, 4, 3, []int{0, 2, 3}},
		{"RDIV x2 stays one group", 2, rdiv, 4, 2, nil},
		{"crc32 x3", 2, crc32, 4, 3, nil},
		{"MUL x8 in whole groups", 2, mul, 4, 8, []int{0, 4, 8}},
		{"RDIV x5", 2, rdiv, 4, 5, []int{0, 3, 5}},
		{"RDIV x7", 2, rdiv, 4, 7, []int{0, 4, 7}},
		{"RDIV x3 at 4 workers", 4, rdiv, 4, 3, []int{0, 1, 2, 3}},
		{"RDIV x5 at 4 workers", 4, rdiv, 4, 5, []int{0, 2, 3, 4, 5}},
		{"RDIV x3 at 1 worker", 1, rdiv, 4, 3, nil},
		{"RDIV x1", 2, rdiv, 4, 1, nil},
		{"x3 at the floor", 2, FanOutMicroOps, 4, 3, []int{0, 2, 3}},
		{"x3 below the floor", 2, FanOutMicroOps - 1, 4, 3, nil},
		{"ADD x8: a chunk needs two groups", 2, add, 4, 8, nil},
		{"MUL x9 keeps group boundaries", 2, mul, 4, 9, []int{0, 4, 9}},
		{"MUL x16 is not capped at the workers", 2, mul, 4, 16, []int{0, 4, 8, 12, 16}},
		{"one-VRF groups: 769 x32", 2, 769, 1, 32, []int{0, 16, 32}},
		{"one-VRF groups: MUL x2", 2, mul, 1, 2, []int{0, 1, 2}},
	} {
		w := &crew{wpl: 1}
		w.begin(tc.workers)
		if got := w.split(tc.ops, tc.width, tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("%s: split at %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := (*crew)(nil).split(rdiv, 4, 3); got != nil {
		t.Errorf("a nil crew split at %v", got)
	}
}

// TestOneChunkRoundAllocs pins the cost of a round too small to fan out on a
// machine whose budget allows a helper: sim-dynamic's shape, three RACER VRFs
// interpreted through a data-dependent loop, of instructions too light for a
// VRF range of their own (a division would split). Every kernel call forms
// one chunk and must be the plain vrf.RunCompiledGroups call, with no job,
// no closure and no allocation.
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
// that park between rounds: RACER VRFs multiplied by one kernel call, at a
// chunk floor of 1 and no spin, so the helper parks after every call and the
// next call wakes it. Eight VRFs split into two groups of four, three into
// the VRF ranges [0,2) and [2,3). The one allocation per call is its
// fanJob, as before helpers parked; the wake is a non-blocking send into a
// channel New made, and the chunk bounds reuse the crew's slice.
func TestFannedRoundAllocs(t *testing.T) {
	defer SetChunkFloor(1)()
	defer SetHelperSpins(0)()
	defer runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	for _, tc := range []struct {
		vrfs int
		cuts []int
	}{
		{8, []int{0, 4, 8}},
		{3, []int{0, 2, 3}},
	} {
		t.Run(fmt.Sprintf("%dvrf", tc.vrfs), func(t *testing.T) {
			fannedRoundAllocs(t, tc.vrfs, tc.cuts)
		})
	}
}

func fannedRoundAllocs(t *testing.T, vrfs int, cuts []int) {
	spec := backends.RACER()
	m, err := New(Config{Spec: spec, Mode: ModeMPU, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog := isa.Program{}
	for rfh := 0; rfh < vrfs; rfh++ {
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
	for rfh := 0; rfh < vrfs; rfh++ {
		v := c.vrfAt(addr(rfh, 0))
		v.WriteReg(0, vals)
		v.WriteReg(1, vals)
		batch = append(batch, v)
	}
	m.crew.begin(m.workers())
	m.fan = &m.crew
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.runBody(bodyPos{pc: vrfs}, batch, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a fanned-out %d-VRF round allocates %v times, want at most its fanJob", vrfs, allocs)
	}
	if !slices.Equal(m.crew.cuts, cuts) {
		t.Errorf("the %d-VRF round split at %v, want %v", vrfs, m.crew.cuts, cuts)
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

// TestCrewProtocol drives crews through random sequences of rounds, at
// random helper budgets, spin limits and chunk floors, each round split by
// crew.split or cut at random into 1 to n chunks that increment r1 of their
// VRFs. After random rounds a crew is stopped, as a Run stops it when it
// finishes or yields to a Preempt, and begun again, at once or once its
// helpers have exited. It holds the crew to its protocol: every chunk runs
// exactly once, done by the time run returns; no helper runs a chunk of a
// round, or counts one done, after run returned; and once stop returns every
// live helper is parked, or about to be, or gone, so a round put on offer
// with no wake is claimed by none. (A Preempt after every kernel call's
// claims, with the crew stopped each time, is TestMachineMatrix's resume
// row at two workers.)
func TestCrewProtocol(t *testing.T) {
	defer runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer SetHelperSpins(spinLimit)()
	defer SetChunkFloor(chunkFloor)()
	spec := backends.RACER()
	k := decodeOn(t, spec, isa.Inc(1, 1)).kern
	rng := rand.New(rand.NewSource(1))
	vs := make([]*vrf.VRF, 24)
	for i := range vs {
		vs[i] = vrf.New(spec.Lanes)
	}
	count := make([]uint64, len(vs)) // increments each VRF has seen
	check := func(when string) {
		for i, v := range vs {
			if got := v.ReadWord(1, 0); got != count[i] {
				t.Fatalf("%s: VRF %d was incremented %d times, want %d", when, i, got, count[i])
			}
		}
	}
	settle := func(w *crew) { // waits for every helper to exit
		for deadline := time.Now().Add(5 * time.Second); w.live.Load() != 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d helpers live after stop", w.live.Load())
			}
		}
	}
	// stopped fails when stop returned with a helper still looking for a
	// round. A helper that stop woke, or that counted itself parked and then
	// saw quit, leaves the parked count a few instructions before it leaves
	// live, so live reads above parked for a moment: at most 342 reads
	// (about a microsecond) in 800 runs on a 2-vCPU host. A helper that stop
	// did not wait for keeps it there until the helper is scheduled again,
	// for up to milliseconds while this goroutine spins on its CPU.
	stopped := func(w *crew, when string) {
		for start := time.Now(); w.live.Load() > w.parked.Load(); {
			if time.Since(start) > 100*time.Microsecond {
				t.Fatalf("%s: %d helpers live, %d parked, 100µs after stop returned", when, w.live.Load(), w.parked.Load())
			}
		}
	}
	spins := []int{0, 1, 64, 4096}
	for trial := range 150 {
		spinLimit = spins[rng.Intn(len(spins))]
		chunkFloor = []uint64{1, k.Ops(), 4 * k.Ops()}[rng.Intn(3)]
		w := &crew{wpl: 1, wake: make(chan struct{}, wakeCap)}
		workers := 2 + rng.Intn(4)
		w.begin(workers)
		var rounds []*fanJob
		for r := range 24 {
			n := 1 + rng.Intn(len(vs))
			cuts := slices.Clone(w.split(k.Ops(), k.GroupWidth(), n))
			if cuts == nil || rng.Intn(2) == 0 {
				cuts = []int{0}
				for i := 1; i < n; i++ {
					if rng.Intn(3) == 0 {
						cuts = append(cuts, i)
					}
				}
				cuts = append(cuts, n)
			}
			j := &fanJob{kern: k, vs: vs[:n], cuts: cuts}
			w.run(j)
			for i := range n {
				count[i]++
			}
			check(fmt.Sprintf("trial %d round %d, cut at %v", trial, r, cuts))
			if j.done.Load() != int64(j.chunks()) {
				t.Fatalf("trial %d round %d: %d of %d chunks done when run returned", trial, r, j.done.Load(), j.chunks())
			}
			rounds = append(rounds, j)
			if rng.Intn(3) != 0 {
				continue
			}
			w.stop()
			stopped(w, fmt.Sprintf("trial %d round %d", trial, r))
			if rng.Intn(2) == 0 {
				poison := &fanJob{kern: k, vs: []*vrf.VRF{vrf.New(spec.Lanes)}, cuts: []int{0, 1}}
				w.job.Store(poison)
				settle(w)
				w.job.Store(nil)
				if n := poison.next.Load(); n != 0 {
					t.Fatalf("trial %d round %d: a round offered after stop was claimed %d times", trial, r, n)
				}
			}
			w.begin(workers)
		}
		w.stop()
		stopped(w, fmt.Sprintf("trial %d", trial))
		settle(w)
		check(fmt.Sprintf("trial %d, its helpers exited", trial))
		for i, j := range rounds {
			if j.done.Load() != int64(j.chunks()) {
				t.Fatalf("trial %d round %d: %d of %d chunks done after its helpers exited", trial, i, j.done.Load(), j.chunks())
			}
		}
	}

}
