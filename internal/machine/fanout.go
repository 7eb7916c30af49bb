package machine

import (
	"runtime"
	"sync/atomic"

	"mpu/internal/trace"
	"mpu/internal/vrf"
)

// A thermal round activates up to the spec's limit of VRFs, and every one
// executes each broadcast micro-op at once (Fig. 10). On the host a round's
// VRFs are independent between mask steps: each kernel call touches only its
// own VRF's words. So when a run phase has one runnable core, the budget
// Config.Workers gives the run phase goes to that core's rounds instead:
// each kernel call splits the round into chunks of whole groups, and the
// calling goroutine and up to Workers−1 helpers claim chunks from one atomic
// counter. Decode, accounting, recipe lookups and the recorder stay on the
// caller, so no statistic, register or snapshot byte depends on the split
// (TestRoundFanOutParity).

// FanOutMicroOps is the least work worth handing to another goroutine, in
// micro-op-words: micro-ops × VRFs × 64-bit words per plane. It is the
// floor of a round's chunks here, and internal/serve reads it per rendezvous
// to pick a session machine's schedule, where it was measured: phases of
// ≈ 860 micro-ops ran twice as fast inline, phases of ≈ 53,000 and more
// faster fanned out (docs/PERF.md, "Which session machines fan out").
const FanOutMicroOps = 1 << 13

// chunkFloor is FanOutMicroOps as the round split reads it; tests lower it
// so that every round of two or more groups fans out.
var chunkFloor uint64 = FanOutMicroOps

// crew is one Run's helper goroutines for the rounds of a lone runnable
// core. A helper starts at the first round that fans out and lives until
// Run returns, whether it finished, yielded to a preemption or failed.
// Neither side ever parks: a helper calls runtime.Gosched between chunks,
// and the caller does the same while it waits for a claimed chunk or for the
// helpers to exit, because waking a parked goroutine costs longer than most
// rounds take.
type crew struct {
	wpl   uint64       // 64-bit words per plane at the machine's lane count
	limit int          // helpers this Run may start: its worker budget less the caller
	live  atomic.Int64 // helpers started and not yet exited; only stop ends them
	quit  atomic.Bool
	job   atomic.Pointer[fanJob] // the round on offer; nil between rounds
}

// fanJob is one kernel call's round, split into chunks of whole groups.
// Exactly one of kern and prog is set.
type fanJob struct {
	kern   *vrf.CompiledExec
	prog   *trace.Prog
	vs     []*vrf.VRF
	width  int // VRFs per group
	chunks int
	next   atomic.Int64 // chunks claimed
	done   atomic.Int64 // chunks finished
}

// split returns how many chunks a round of n VRFs forms for a stream of ops
// micro-ops per VRF run width VRFs per group. Each chunk holds whole groups
// and at least chunkFloor micro-op-words of full ones. A nil crew (no
// helper budget) forms none.
func (w *crew) split(ops uint64, width, n int) int {
	if w == nil || n < 2*width {
		return 0 // no helper budget, or fewer than two full groups
	}
	group := ops * w.wpl * uint64(width)
	if group == 0 {
		return 0
	}
	per := (chunkFloor + group - 1) / group // full groups per chunk, at least
	return int(uint64(n/width) / per)
}

// groups runs a compiled stream over one round's VRFs, as
// vrf.RunCompiledGroups does. A round that forms fewer than two chunks is
// that plain call.
func (w *crew) groups(k *vrf.CompiledExec, vs []*vrf.VRF) {
	width := k.GroupWidth()
	if n := w.split(k.Ops(), width, len(vs)); n >= 2 {
		w.run(&fanJob{kern: k, vs: vs, width: width, chunks: n})
		return
	}
	vrf.RunCompiledGroups(k, vs)
}

// replay runs a compiled body over one round's VRFs, as trace.Prog.Run
// does. A round that forms fewer than two chunks is that plain call.
func (w *crew) replay(p *trace.Prog, vs []*vrf.VRF) {
	width := p.Width()
	if n := w.split(p.Ops(), width, len(vs)); n >= 2 {
		w.run(&fanJob{prog: p, vs: vs, width: width, chunks: n})
		return
	}
	p.Run(vs)
}

// run offers j to the helpers, starting any the budget allows and the job
// can use, and works its chunks on the caller too. It returns once every
// chunk is done; the caller only waits on chunks a running helper claimed.
func (w *crew) run(j *fanJob) {
	for w.live.Load() < int64(min(w.limit, j.chunks-1)) {
		w.live.Add(1)
		go w.help()
	}
	w.job.Store(j)
	for j.work() {
	}
	w.job.Store(nil)
	for j.done.Load() < int64(j.chunks) {
		runtime.Gosched()
	}
}

// help is a helper's loop: claim chunks of the round on offer until Run
// ends.
func (w *crew) help() {
	defer w.live.Add(-1)
	for !w.quit.Load() {
		if j := w.job.Load(); j == nil || !j.work() {
			runtime.Gosched()
		}
	}
}

// stop ends the Run's helpers and waits for them to exit.
func (w *crew) stop() {
	if w.live.Load() == 0 {
		return
	}
	w.quit.Store(true)
	for w.live.Load() > 0 {
		runtime.Gosched()
	}
	w.quit.Store(false)
}

// work claims one chunk and runs it, reporting false when none was left.
// Chunk i covers groups [i·G/chunks, (i+1)·G/chunks) of the round's G, so a
// group never straddles two chunks and each VRF sees what an undivided call
// gives it.
func (j *fanJob) work() bool {
	i := int(j.next.Add(1)) - 1
	if i >= j.chunks {
		return false
	}
	g := (len(j.vs) + j.width - 1) / j.width
	lo, hi := i*g/j.chunks*j.width, min((i+1)*g/j.chunks*j.width, len(j.vs))
	if j.prog != nil {
		j.prog.Run(j.vs[lo:hi])
	} else {
		vrf.RunCompiledGroups(j.kern, j.vs[lo:hi])
	}
	j.done.Add(1)
	return true
}
