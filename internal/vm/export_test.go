package vm

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
