// Fixture for the taint analyzer. Local types named UTCB / VMExit /
// CPUState model the hypervisor's guest-state carriers (the analyzer
// matches source types by name, like chargecheck's Kernel), and a local
// FetchByte models the decoder's guest instruction-stream reader.
package fixture

// VMExit models hypervisor.VMExit: every field is guest-controlled.
type VMExit struct {
	Reason int
	Port   uint16
	GPA    uint64
	Qual   uint64
}

// CPUState models x86.CPUState.
type CPUState struct {
	IP uint32
}

// UTCB models hypervisor.UTCB.
type UTCB struct {
	Words []uint64
	N     int
}

// FetchByte models the decoder's instruction-stream reader; its result
// is intrinsically guest-controlled.
func FetchByte() byte { return 0x90 }

// direct: a guest-state field flows straight into an index.
func direct(e *VMExit, tbl []byte) byte {
	return tbl[e.Reason] // want "reaches slice/array index"
}

// Two-hop interprocedural flow: the source is read in route, travels
// through step1 into step2, and only sinks there.
func route(e *VMExit, tbl []byte) byte {
	return step1(tbl, int(e.Reason))
}

func step1(tbl []byte, i int) byte {
	return step2(tbl, i)
}

func step2(tbl []byte, i int) byte {
	return tbl[i] // want "passed to parameter i of taint.step2"
}

// intrinsic: the result of a guest-memory reader is tainted.
func intrinsic(tbl []byte) byte {
	b := FetchByte()
	return tbl[b] // want "guest memory via FetchByte"
}

// shifted: a guest field used as a shift amount.
func shifted(e *VMExit) uint32 {
	return uint32(1) << e.Port // want "reaches shift amount"
}

// sized: a guest field used as an allocation length.
func sized(e *VMExit) []byte {
	return make([]byte, e.Qual) // want "reaches make length"
}

// resliced: a guest field used as a slice bound.
func resliced(u *UTCB) []uint64 {
	return u.Words[:u.N] // want "reaches slice bound"
}

// ring demonstrates field-based flow: record stores a guest value into
// a struct field, load reads it back in a different function.
type ring struct {
	head uint32
}

func (r *ring) record(s *CPUState) {
	r.head = s.IP
}

func (r *ring) load(tbl []byte) byte {
	return tbl[r.head] // want "reaches slice/array index"
}

// bounded is clean: the index is compared against len before use.
func bounded(e *VMExit, tbl []byte) byte {
	i := int(e.Reason)
	if i < 0 || i >= len(tbl) {
		return 0
	}
	return tbl[i]
}

// annotated is clean: the sink carries a sanitizer annotation.
func annotated(e *VMExit, tbl []byte) byte {
	// sanitized: caller guarantees GPA was range-checked at decode time
	return tbl[e.GPA]
}

// masked is clean: an AND with a constant bounds the value.
func masked(e *VMExit, tbl *[8]byte) byte {
	return tbl[e.Reason&7]
}

// switched is clean: the switch tag counts as a dominating comparison.
func switched(e *VMExit, tbl []byte) byte {
	switch e.Reason {
	case 0:
		return tbl[e.Reason]
	}
	return 0
}

// A fourteen-function chain: the guest value read in hop0 reaches the
// sink thirteen calls later, and the displayed path is truncated.
func hop0(e *VMExit, tbl []byte) byte { return hop1(tbl, e.Reason) }
func hop1(tbl []byte, i int) byte     { return hop2(tbl, i) }
func hop2(tbl []byte, i int) byte     { return hop3(tbl, i) }
func hop3(tbl []byte, i int) byte     { return hop4(tbl, i) }
func hop4(tbl []byte, i int) byte     { return hop5(tbl, i) }
func hop5(tbl []byte, i int) byte     { return hop6(tbl, i) }
func hop6(tbl []byte, i int) byte     { return hop7(tbl, i) }
func hop7(tbl []byte, i int) byte     { return hop8(tbl, i) }
func hop8(tbl []byte, i int) byte     { return hop9(tbl, i) }
func hop9(tbl []byte, i int) byte     { return hop10(tbl, i) }
func hop10(tbl []byte, i int) byte    { return hop11(tbl, i) }
func hop11(tbl []byte, i int) byte    { return hop12(tbl, i) }
func hop12(tbl []byte, i int) byte    { return hop13(tbl, i) }
func hop13(tbl []byte, i int) byte {
	return tbl[i] // want "-> ... -> reaches slice/array index in taint.hop13"
}

// Two structs with a field of the same name both carry guest data into
// one sink; the report must name the same one on every run.
type portA struct{ n int }
type portB struct{ n int }

func (a *portA) set(e *VMExit) { a.n = e.Reason }
func (b *portB) set(e *VMExit) { b.n = int(e.Port) }

func twin(a *portA, b *portB, tbl []byte) byte {
	return tbl[a.n+b.n] // want "stored into field portA.n"
}
