package machine

import "mpu/internal/vrf"

// ParkedVRFs returns the register files Reset parked on each core's spare
// list, indexed by core: what vrfAt will recycle into later requests.
func (m *Machine) ParkedVRFs() [][]*vrf.VRF {
	out := make([][]*vrf.VRF, len(m.mpus))
	for i, c := range m.mpus {
		out[i] = c.spare
	}
	return out
}

// SetChunkFloor sets the micro-op-words each chunk of a fanned-out round
// must carry (FanOutMicroOps outside tests) and returns a function that
// restores the previous floor. At 1 every round of two or more groups fans
// out.
func SetChunkFloor(n uint64) (restore func()) {
	prev := chunkFloor
	chunkFloor = n
	return func() { chunkFloor = prev }
}

// SetIOFloor sets the 64-lane tiles a host transfer must move before
// WriteVectors and ReadVectors split it (hostIOTiles outside tests) and
// returns a function that restores the previous floor. At 1 every transfer
// of two or more VRFs splits.
func SetIOFloor(n int) (restore func()) {
	prev := ioFloor
	ioFloor = n
	return func() { ioFloor = prev }
}

// SetHelperSpins sets how many times a round helper looks for a chunk to
// claim before it parks (helperSpins outside tests) and returns a function
// that restores the previous bound. At 0 a helper parks whenever it finds
// no chunk to claim.
func SetHelperSpins(n int) (restore func()) {
	prev := spinLimit
	spinLimit = n
	return func() { spinLimit = prev }
}

// ParkedHelpers returns how many of the running Run's round helpers are
// parked or about to park. It may be called while Run executes.
func (m *Machine) ParkedHelpers() int64 { return m.crew.parked.Load() }

// BodyInstructions returns the body instructions the cores have executed in
// the current run so far: what the run's Stats.Instructions will include.
func (m *Machine) BodyInstructions() uint64 {
	var n uint64
	for _, c := range m.mpus {
		n += c.local.Instructions
	}
	return n
}

// PausedMidRound reports whether some core is paused between two
// instructions of an interpreted round.
func (m *Machine) PausedMidRound() bool { return m.midRound() }

// ForgeResumePoint rewrites core 0's paused-round position, which the next
// Snapshot encodes unchecked: how tests build streams Restore must refuse.
func (m *Machine) ForgeResumePoint(f func(pc, steps *int, bodyPJ, hostPJ *float64)) {
	at := &m.mpus[0].ens.at
	f(&at.pc, &at.steps, &at.bodyPJ, &at.hostPJ)
}

// SnapshotMidLayout encodes the machine in the mid-round layout whether or
// not a core is paused mid-round; Snapshot would pick the other layout for a
// machine with none.
func (m *Machine) SnapshotMidLayout() []byte { return m.encode(true) }
