package machine

// Reset returns the machine to its just-constructed state so a pooled
// instance can be reused across LoadProgram calls. It is the one place that
// recycles per-core run state:
//
//   - coreState, assigned whole: pc, cycle and issue counters, the
//     done/blocked flags, pending SEND/RECV rendezvous state, the
//     mid-ensemble cursor and the per-core local Stats
//   - the program
//   - vector register files: every address is unmapped, so the next touch
//     sees the register file a fresh machine would. The storage is parked
//     on the core's spare list and vrfAt recycles it (vrf.Recycle clears
//     what the last request may have set and nothing else) instead of
//     allocating and zeroing a new word directory per VRF per request. A
//     core parks at most Spec.VRFsPerMPU of them — what its largest request
//     mapped, at most VRFsPerMPU × 4372 × wpl × 8 B.
//   - the return-address stack, recipe cache (contents AND stall/hit
//     accounting), and playback-buffer overflow count
//   - the pc-indexed decode cache and the compiled ensemble trace cache
//   - the scratch buffers
//
// The only state that survives is the machine's configuration and two
// content-keyed memos: the decoded-instruction memo (m.expands) and the JIT
// program memo (m.jitMemo). Both cache pure functions — a recipe expansion
// and its compiled kernel are decode work keyed by instruction bits (the
// kernel itself lives in the process-wide kernels memo, no machine's state
// at all), a compiled closure chain is keyed by the recorded step stream and
// lane count — shared by pointer and charged nowhere, so keeping them warm
// is what makes pool reuse profitable without perturbing statistics.
// TestResetReuseMatchesFresh pins that a
// Reset+LoadAll+Run sequence on a used machine produces byte-identical
// Stats to a fresh machine's run.
func (m *Machine) Reset() {
	m.preempt.Store(false)
	m.midRun = false
	for _, c := range m.mpus {
		c.coreState = coreState{done: true} // no program
		c.prog = nil
		for _, v := range c.vrfs {
			if len(c.spare) < m.cfg.Spec.VRFsPerMPU() {
				c.spare = append(c.spare, v)
			}
		}
		clear(c.vrfs)
		c.ras.Reset()
		c.rcache.Reset()
		c.pbuf.Reset()
		c.decode = nil
		c.traces.Reset()
		c.hdr = c.hdr[:0]
		c.act = c.act[:0]
		c.tm.Reset()
	}
}

// Rewind re-arms every core to execute its loaded program again from the
// top, keeping everything the completed run learned: vector register
// contents, recipe-table residency, installed traces and their compiled
// closure chains, and the decode caches. Where Reset models handing a
// pooled machine to a new request (fresh-machine stats equivalence),
// Rewind models the steady state of a resident kernel invoked again — the
// next Run's ensemble rounds replay warm traces against a warm recipe
// table, so its Stats legitimately differ from a cold run's (trace hits
// where the cold run recorded, recipe hits where it stalled on decode).
// Per-run accounting (cycle and issue counters, recipe and playback-buffer
// tallies) restarts at zero; BenchmarkTraceReplay uses Rewind to measure
// the replay hot loop without re-paying program load and host data
// transfer every iteration.
func (m *Machine) Rewind() {
	m.preempt.Store(false)
	m.midRun = false
	for _, c := range m.mpus {
		c.coreState = coreState{done: len(c.prog) == 0}
		c.ras.Reset()
		c.rcache.ResetCounters()
		c.pbuf.Reset()
		c.hdr = c.hdr[:0]
		c.act = c.act[:0]
		c.tm.Reset()
	}
}
