// Fixture for the call-graph engine: interface dispatch and method
// values, the two resolution modes chargecheck's reachability and the
// taint analyzer's summary propagation depend on.
package fixture

// Device models the interface-based device dispatch in the VMM.
type Device interface {
	Tick()
}

// PIT and Serial are two implementations the graph must fan out to.
type PIT struct{ n int }

func (p *PIT) Tick() { p.n++ }

type Serial struct{ n int }

func (s *Serial) Tick() { s.n++ }

// dispatch makes an interface call: the graph should resolve it to
// every implementation declared in the program.
func dispatch(d Device) {
	d.Tick()
}

// viaValue binds a method value and calls it later: the graph should
// still record the edge to PIT.Tick.
func viaValue(p *PIT) {
	f := p.Tick
	f()
}

// viaFuncValue passes a function value around; the reference itself is
// an edge (the callback may run anywhere).
func helper() {}

func viaFuncValue(run func()) {
	run()
}

func root() {
	viaFuncValue(helper)
}

// Box is generic: a call through an instantiation must resolve to the
// declaration that has the body, Box.Put.
type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }

func viaGeneric(b *Box[int]) {
	b.Put(1)
}
