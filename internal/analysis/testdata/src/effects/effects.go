// Package fixture is the hand-built mini program for the write-effect
// summary unit test (effects_test.go): each function's expected write
// regions and return-alias sets are asserted directly against the
// engine's output.
package fixture

// Table is an init-only lookup table; reads copy scalars out of it.
var Table = map[int]string{1: "a"}

// Counter is a mutable global scalar.
var Counter int

// Buf is a mutable global slice.
var Buf = make([]byte, 16)

// Machine is the receiver shape.
type Machine struct {
	regs [4]uint64
	mem  []byte
}

// SetReg writes only the receiver.
func (m *Machine) SetReg(i int, v uint64) { m.regs[i] = v }

// Fill writes only its second parameter.
func Fill(n int, dst []byte) {
	for i := 0; i < n && i < len(dst); i++ {
		dst[i] = byte(n)
	}
}

// Bump writes the global scalar directly.
func Bump() { Counter++ }

// BufAlias hands out the global buffer.
func BufAlias() []byte { return Buf }

// WriteThroughAlias writes the global through the accessor's result.
func WriteThroughAlias() { BufAlias()[0] = 1 }

// CopyOut copies a scalar out of the global table: scalar copies sever
// aliasing, so this has no effects and no return aliases.
func CopyOut(k int) string { return Table[k] }

// AddrOfCounter returns the address of the global scalar: the one way
// a scalar re-enters the analysis.
func AddrOfCounter() *int { return &Counter }

// WriteViaPointer writes the scalar through the returned pointer.
func WriteViaPointer() { *AddrOfCounter() = 7 }

// Step maps callee effects through the call sites: receiver via
// SetReg, parameter via Fill, global via Bump.
func (m *Machine) Step(scratch []byte) {
	m.SetReg(0, 1)
	Fill(4, scratch)
	Bump()
}

// Deep is written only at the bottom of a fourteen-function call chain:
// the write must reach the top however long its path grows.
var Deep int

func DeepTop() { deep1() }
func deep1()   { deep2() }
func deep2()   { deep3() }
func deep3()   { deep4() }
func deep4()   { deep5() }
func deep5()   { deep6() }
func deep6()   { deep7() }
func deep7()   { deep8() }
func deep8()   { deep9() }
func deep9()   { deep10() }
func deep10()  { deep11() }
func deep11()  { deep12() }
func deep12()  { deep13() }
func deep13()  { Deep = 1 }
