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
