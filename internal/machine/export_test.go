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
