package ntt

// goBody returns a copy of t whose fused plans run the pure-Go pass bodies
// whatever NewTable selected: the reference the IFMA52 lanes are compared
// against. A test hook, not a knob — nothing outside this package's tests
// can reach it.
func goBody(t *Table) *Table {
	c := *t
	c.lanes = false
	return &c
}
