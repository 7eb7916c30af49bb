package machine

import (
	"errors"

	"mpu/internal/controlpath"
	"mpu/internal/lint"
	"mpu/internal/trace"
	"mpu/internal/vrf"
)

// ErrPreempted reports that Run paused at an instruction boundary in response
// to Preempt. The machine is left mid-run but architecturally consistent:
// the caller may Snapshot it, call Run again to resume in place, or Restore
// the snapshot into any compatible machine and resume there. A resumed run
// produces Stats byte-identical to an uninterrupted one.
var ErrPreempted = errors.New("machine: run preempted at instruction boundary")

// Preempt asks a running machine to pause at the next instruction boundary.
// It is safe to call from any goroutine, including while Run executes; the
// flag is consumed by the Run call that honors (or outlives) it, so a
// request landing after the run completed does not poison the next run.
func (m *Machine) Preempt() { m.preempt.Store(true) }

// ensState is the resumable position inside one compute ensemble. A yield
// between thermal rounds records the round index and the body end pc here
// (the header scratch c.hdr keeps the activation list); the next Run
// re-enters runEnsembleRounds without re-charging the header walk, the
// playback-buffer probe, or the ensemble count. A yield between two
// instructions of an interpreted round also sets mid and stores the round's
// position in at; the next Run continues that round at at.pc without
// charging its activation again.
type ensState struct {
	active    bool
	bodyStart int
	bodyLen   int
	fits      bool // body fit the playback buffer (charged at entry)
	round     int  // next thermal round to execute, or the paused one
	endPC     int  // body end pc recorded by the rounds run so far
	mid       bool // round paused between two body instructions
	at        bodyPos
}

// bodyPos is where an interpreted round stands: the next body instruction
// and the round-local values runBody carries from one instruction to the
// next.
type bodyPos struct {
	pc     int
	steps  int     // body instructions executed this round
	bodyPJ float64 // per-VRF datapath energy, flushed at COMPUTE_DONE
	hostPJ float64 // host energy, flushed at COMPUTE_DONE
}

// shouldYield reports whether the core should pause for a pending
// preemption request. The seg guard makes every Run call execute at least
// one instruction per runnable core before honoring the flag, so a caller
// that preempts in a tight loop still drives the program forward.
func (c *core) shouldYield() bool {
	return c.seg > 0 && c.m.preempt.Load()
}

// runEnsembleRounds executes the active ensemble's remaining thermal
// rounds, yielding between rounds when preemption is pending; an
// interpreted round without the recorder also yields between its
// instructions (runBody). The trace-engine gate (classification verdict,
// installed trace, recipe residency) is recomputed from the memoized caches
// on every entry, so a resumed ensemble replays, records, or falls back
// exactly as the uninterrupted run would — the caches are part of the
// snapshot. A round paused mid-body needs no gate: only a fallback round
// pauses there, and it resumes as one.
func (c *core) runEnsembleRounds(rounds [][]controlpath.VRFAddr) error {
	bodyStart, bodyLen, fits := c.ens.bodyStart, c.ens.bodyLen, c.ens.fits

	// Spilling bodies replay from the ISU, not the playback buffer, so the
	// O(1) cycle delta would be wrong; classify everything else before the
	// first round so the recorder only runs on bodies that can succeed.
	enabled := c.m.traceEnabled()
	gate := enabled && fits
	key := trace.Key{BodyStart: bodyStart, BodyLen: bodyLen}
	var tr *trace.Trace
	known := false
	if gate {
		// The CFG-classification verdict is memoized per key, so a
		// dynamic body pays for ClassifyBody exactly once per program
		// load, not once per activation.
		if !c.traces.Eligible(key, func() bool {
			cl := lint.ClassifyBody(c.prog, bodyStart)
			return cl == lint.BodyStraight || cl == lint.BodyStatic
		}) {
			tr, known = nil, true
		} else {
			tr, known = c.traces.Lookup(key)
		}
	}

	endPC := c.ens.endPC
	for ri := c.ens.round; ri < len(rounds); ri++ {
		batch := rounds[ri]
		// A paused round was activated before it paused: its VRFs keep the
		// masks its body set, and Rounds, the footer and the engine tally
		// are already charged.
		resume := c.ens.mid
		at := bodyPos{pc: bodyStart}
		if resume {
			at = c.ens.at
			c.ens.mid, c.ens.at = false, bodyPos{}
		} else {
			if c.shouldYield() {
				c.ens.round = ri
				c.ens.endPC = endPC
				return nil
			}
			c.tracef("round %d: %d VRFs active", ri, len(batch))
			c.local.Rounds++
			c.cycles += 4 // footer interrupt + batch swap (Fig. 10 lines 11–23)
		}
		if cap(c.act) < len(batch) {
			c.act = make([]*vrf.VRF, len(batch))
		}
		vrfs := c.act[:len(batch)]
		for i, a := range batch {
			vrfs[i] = c.vrfAt(a)
			if !resume {
				vrfs[i].Unmask() // activation enables every lane
			}
		}
		switch {
		case !resume && gate && known && tr != nil && c.replayable(tr):
			c.local.TraceHits++
			c.replayRound(tr, vrfs)
			endPC = tr.EndPC
		case !resume && gate && !known:
			// First execution: interpret under the recorder. Finish returns
			// nil if the run proved unreplayable (negative cache entry).
			c.local.TraceMisses++
			rec := trace.NewRecorder()
			pc, err := c.runBody(at, vrfs, rec)
			if err != nil {
				return err
			}
			tr = rec.Finish(pc)
			c.traces.Install(key, tr)
			known = true
			endPC = pc
		default:
			if enabled && !resume {
				c.local.TraceFallbacks++
			}
			pc, err := c.runBody(at, vrfs, nil)
			if err != nil {
				return err
			}
			if c.ens.mid {
				c.ens.round = ri
				c.ens.endPC = endPC
				return nil
			}
			endPC = pc
		}
		c.seg++
	}
	c.pc = endPC
	c.ens = ensState{}
	return nil
}
