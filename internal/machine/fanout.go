package machine

import (
	"runtime"
	"sync/atomic"

	"mpu/internal/isa"
	"mpu/internal/trace"
	"mpu/internal/vrf"
)

// A thermal round activates up to the spec's limit of VRFs, and every one
// executes each broadcast micro-op at once (Fig. 10). On the host a round's
// VRFs are independent between mask steps: each kernel call touches only its
// own VRF's words. So when a run phase has one runnable core, the budget
// Config.Workers gives the run phase goes to that core's rounds instead:
// each kernel call splits the round into chunks, each a contiguous range of
// its VRFs, and the calling goroutine and up to Workers−1 helpers claim
// chunks from one atomic counter. A round of two or more full groups splits
// at group boundaries; a smaller one of three or more VRFs splits into at
// most one range per worker. Decode, accounting, recipe lookups and the
// recorder stay on the caller, so no statistic, register or snapshot byte
// depends on the split (TestMachineMatrix's workers2 row), and
// TestCrewProtocol holds the crew to its claim-and-stop protocol.

// FanOutMicroOps is the least work worth handing to another goroutine, in
// micro-op-words: simulated micro-ops (a kernel's Ops, the recipe's count)
// × VRFs × 64-bit words per plane. It prices a round by what it simulates,
// not by the host ops that run it: a kernel's host stream is up to ~8×
// shorter than its recipe on RACER and MIMDRAM and as long on DualityCache,
// so the same floor now stands for less host work on the first two. It is
// the floor of a round's chunks here, and internal/serve reads it per
// rendezvous to pick a session machine's schedule, where it was measured
// before host streams: phases of ≈ 860 micro-ops ran twice as fast inline,
// phases of ≈ 53,000 and more faster fanned out (docs/PERF.md, "Which
// session machines fan out").
const FanOutMicroOps = 1 << 13

// hostIOTiles is the least host I/O worth splitting, in 64-lane tiles (one
// bitvec.Transpose64 each): below it WriteVectors and ReadVectors run on the
// caller, at or above it they split their VRFs into Config.Workers chunks
// through sweep.Each. It was measured with BenchmarkWriteVectors (one
// register after a Reset, so every VRF is recycled too) on a 2-vCPU KVM
// guest with go1.24: starting and joining two goroutines costs about 4.5 µs,
// but a split read slower than the caller alone up to 128 tiles (RACER 87 →
// 125 µs) and won from 256 (192 → 145 µs; 1.4× at 512, 1.6× at 1024 and
// 2048 on SIMDRAM). The floor sits at twice the crossover, so a transfer
// splits only where it saves some 100 µs, and a RACER request at 4 Mi
// elements (132 VRFs of one tile) stays on the caller (docs/PERF.md, "Host
// I/O on every host core").
const hostIOTiles = 512

// helperSpins is how many times a helper that finds no chunk to claim
// looks again before it parks on the crew's wake channel: about 40 µs on a
// 2-vCPU KVM guest with go1.24. A parked helper hands its CPU back to the Go
// scheduler, which polls the network when a CPU runs out of goroutines, so
// a latency request's bytes are read at once instead of at sysmon's next
// poll, about 10 ms apart; a helper spinning on runtime.Gosched sits in the
// global run queue, which the scheduler reads before it polls. But waking a
// parked helper there took longer than most chunks run, so a helper keeps
// looking through the gaps between one interpreted round's kernel calls
// (p90 21 µs for gcd on RACER) and parks only in longer ones (docs/PERF.md,
// "A latency request waits one instruction").
const helperSpins = 20000

// chunkFloor is FanOutMicroOps as the round split reads it; tests lower it
// so that every round of two or more full groups, and every smaller one of
// three or more VRFs, fans out.
var chunkFloor uint64 = FanOutMicroOps

// ioFloor is hostIOTiles as ioChunks reads it; tests lower it so that every
// transfer of two or more VRFs splits.
var ioFloor = hostIOTiles

// spinLimit is helperSpins as help reads it; tests lower it so that a helper
// parks whenever it finds no chunk to claim.
var spinLimit = helperSpins

// wakeCap bounds a crew's helpers: the wake channel holds a token for each.
const wakeCap = 1 << 10

// crew is one Run's helper goroutines for the rounds of a lone runnable
// core. A helper starts at the first round that fans out and serves until
// Run returns, whether it finished, yielded to a preemption or failed.
// Between rounds it looks for the next one up to spinLimit times, then
// parks on wake until the caller offers a round or stops the crew. The
// caller never parks: it calls runtime.Gosched while it waits for a chunk a
// helper claimed, a short wait.
type crew struct {
	wpl    uint64                 // 64-bit words per plane at the machine's lane count
	limit  int                    // helpers this Run may start: its worker budget less the caller
	live   atomic.Int64           // helpers started and not yet exited
	parked atomic.Int64           // helpers that block on wake, or are about to
	wake   chan struct{}          // buffered: a token sent before its helper blocks is not lost
	quit   atomic.Bool            // set by stop; a helper that sees it exits
	job    atomic.Pointer[fanJob] // the round on offer; nil between rounds
	cuts   []int                  // split's result, reused round after round
}

// begin readies the crew for a Run with the given worker budget. A helper
// a previous Run parked and that has not yet seen that Run's stop serves
// this Run instead of exiting.
func (w *crew) begin(workers int) {
	w.limit = min(workers-1, wakeCap)
	w.quit.Store(false)
}

// fanJob is one kernel call's or replay's round, split into VRF ranges.
// Exactly one of kern and tr is set.
type fanJob struct {
	kern *vrf.CompiledExec
	tr   *trace.Trace
	vs   []*vrf.VRF
	cuts []int        // chunk i runs vs[cuts[i]:cuts[i+1]]
	next atomic.Int64 // chunks claimed
	done atomic.Int64 // chunks finished
}

// split cuts a round of n VRFs, for a stream of ops micro-ops per VRF run
// width VRFs per group, into contiguous VRF ranges and returns their bounds,
// or nil when the round forms fewer than two: then it is one plain call. A
// nil crew (no helper budget) forms none. The bounds live in the crew until
// its next split.
//
//   - A round of two or more full groups forms chunks of whole groups, each
//     carrying at least chunkFloor micro-op-words of full ones, and chunk i
//     takes groups [i·G/chunks, (i+1)·G/chunks) of the round's G; their
//     count is not capped at the worker budget, so helpers that finish early
//     take more chunks.
//   - A round of three VRFs up to one short of two full groups forms at most
//     one range per worker, each carrying at least chunkFloor
//     micro-op-words. The first range, which the caller claims unless a
//     spinning helper is quicker, is the larger: three VRFs split 2+1 at two
//     workers. vrf.RunCompiledGroups runs group loops inside each range.
//   - A round of two VRFs stays one group.
func (w *crew) split(ops uint64, width, n int) []int {
	if w == nil || ops == 0 {
		return nil
	}
	perVRF := ops * w.wpl
	cuts := w.cuts[:0]
	switch {
	case n >= 2*width:
		group := perVRF * uint64(width)
		per := (chunkFloor + group - 1) / group // full groups per chunk, at least
		chunks := int(uint64(n/width) / per)
		if chunks < 2 {
			return nil
		}
		g := (n + width - 1) / width
		for i := range chunks {
			cuts = append(cuts, i*g/chunks*width)
		}
	case n >= 3:
		least := (chunkFloor + perVRF - 1) / perVRF // VRFs per range, at least
		chunks := min(w.limit+1, int(uint64(n)/least))
		if chunks < 2 {
			return nil
		}
		for i := range chunks {
			cuts = append(cuts, n-(chunks-i)*n/chunks)
		}
	default:
		return nil
	}
	w.cuts = append(cuts, n)
	return w.cuts
}

// groups runs a compiled stream over one round's VRFs, as
// vrf.RunCompiledGroups does. A round that forms fewer than two chunks is
// that plain call.
func (w *crew) groups(k *vrf.CompiledExec, vs []*vrf.VRF) {
	if cuts := w.split(k.Ops(), k.GroupWidth(), len(vs)); cuts != nil {
		w.run(&fanJob{kern: k, vs: vs, cuts: cuts})
		return
	}
	vrf.RunCompiledGroups(k, vs)
}

// replay runs a recorded body over one round's VRFs, as trace.Trace.Run
// does. A round that forms fewer than two chunks is that plain call.
func (w *crew) replay(t *trace.Trace, vs []*vrf.VRF) {
	if cuts := w.split(t.MicroOpsPerVRF, t.Width(), len(vs)); cuts != nil {
		w.run(&fanJob{tr: t, vs: vs, cuts: cuts})
		return
	}
	t.Run(vs)
}

// run offers j to the helpers, starting any the budget allows and the job
// can use, and works its chunks on the caller too. The caller claims right
// after it offers the job, so it usually runs the first range, the larger
// one of a small round's split. It returns once every chunk is done; the
// caller only waits on chunks a running helper claimed.
func (w *crew) run(j *fanJob) {
	chunks := j.chunks()
	for w.live.Load() < int64(min(w.limit, chunks-1)) {
		w.live.Add(1)
		go w.help()
	}
	w.job.Store(j)
	w.rouse()
	for j.work() {
	}
	w.job.Store(nil)
	for j.done.Load() < int64(chunks) {
		runtime.Gosched()
	}
}

// rouse wakes the parked helpers, for the round just offered or for stop.
// The sends never block and allocate nothing; a helper counted as parked but
// not yet blocked finds its token in the buffer.
func (w *crew) rouse() {
	for n := w.parked.Load(); n > 0; n-- {
		select {
		case w.wake <- struct{}{}:
		default:
			return
		}
	}
}

// help is a helper's loop: claim chunks of the round on offer until the
// crew stops, parking when no chunk has come for spinLimit looks.
func (w *crew) help() {
	defer w.live.Add(-1)
	idle := 0
	for !w.quit.Load() {
		if j := w.job.Load(); j != nil && !j.claimed() && j.work() {
			idle = 0
			continue
		}
		if idle < spinLimit {
			idle++
			continue
		}
		idle = 0
		// Count in before the last look: either rouse sees the count or
		// this look sees the round it offered, or stop's quit.
		w.parked.Add(1)
		if j := w.job.Load(); (j == nil || j.claimed()) && !w.quit.Load() {
			<-w.wake
		}
		w.parked.Add(-1)
	}
}

// stop ends the Run's helpers. No helper touches a round once run has
// returned, so stop only waits for the ones still looking for a round, which
// see quit at once; it wakes the parked ones, which exit when they next run,
// without waiting for them, since a parked goroutine takes longer to wake
// than most Runs take.
func (w *crew) stop() {
	if w.live.Load() == 0 {
		return
	}
	w.quit.Store(true)
	w.rouse()
	for w.live.Load() > w.parked.Load() {
		runtime.Gosched()
	}
}

// chunks reports how many chunks the round forms.
func (j *fanJob) chunks() int { return len(j.cuts) - 1 }

// claimed reports whether every chunk of the round has been claimed.
func (j *fanJob) claimed() bool { return j.next.Load() >= int64(j.chunks()) }

// work claims one chunk and runs it, reporting false when none was left.
func (j *fanJob) work() bool {
	i := int(j.next.Add(1)) - 1
	if i >= j.chunks() {
		return false
	}
	j.chunk(i)
	return true
}

// chunk runs claimed chunk i over its VRF range. Every VRF sees what an
// undivided call gives it: the ranges are disjoint, and each VRF's ops run
// in stream order under its own mask.
func (j *fanJob) chunk(i int) {
	vs := j.vs[j.cuts[i]:j.cuts[i+1]]
	if j.tr != nil {
		j.tr.Run(vs)
	} else {
		vrf.RunCompiledGroups(j.kern, vs)
	}
	j.done.Add(1)
}

// ioChunks returns how many chunks a host transfer over n VRFs splits into:
// one per worker, at most one per VRF, when the transfer moves at least
// ioFloor tiles, else 1, which the caller runs itself.
func (m *Machine) ioChunks(n int) int {
	tiles := n * ((m.cfg.Spec.Lanes + isa.WordBits - 1) / isa.WordBits)
	if n < 2 || tiles < ioFloor {
		return 1
	}
	return min(m.workers(), n)
}
