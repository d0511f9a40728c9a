package vm

import "repro/internal/obs"

// DecodeAll decodes every defined function of the machine's module
// afresh, as the first call of each does: BenchmarkVMDecode's unit.
func (m *Machine) DecodeAll() {
	clear(m.decoded)
	clear(m.prof)
	clear(m.plans)
	for _, f := range m.Mod.Defined() {
		m.decodedFunc(f)
	}
}

// Flight returns the machine's flight recorder, nil unless
// Config.Flight armed one.
func (m *Machine) Flight() *obs.Flight {
	if m.obs == nil {
		return nil
	}
	return m.obs.flight
}
