package prof

// The profiler's side of a microhypervisor run: pure guest-memory
// readers for stack walks and code capture, and the exact-cost
// attribution derived from the kernel's event stream. Readers go
// through hw.Memory.CodePage — the pure, bounds-checked,
// MMIO-declining window onto RAM — and guest page tables are read with
// x86.ProbeGuest, so no accessed/dirty bit moves because a profiler
// looked.

import (
	"encoding/binary"

	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// pureRead32 reads a little-endian 32-bit word of host-physical RAM
// with no side effects; MMIO and out-of-range addresses decline.
func pureRead32(mem *hw.Memory, pa uint64) (uint32, bool) {
	var v uint32
	for i := uint64(0); i < 4; i++ {
		data, _, ok := mem.CodePage(hw.PhysAddr(pa + i))
		if !ok {
			return 0, false
		}
		off := (pa + i) & (hw.PageSize - 1)
		if i == 0 && off+4 <= hw.PageSize {
			return binary.LittleEndian.Uint32(data[off:]), true
		}
		v |= uint32(data[off]) << (8 * i)
	}
	return v, true
}

// guestPhys adapts a guest-physical space as x86.PhysReader for
// page-table probes. With space nil, addresses are host-physical
// already (bare metal).
type guestPhys struct {
	mem   *hw.Memory
	space *cap.MemSpace
}

func (g guestPhys) ReadPhys32(pa uint64) (uint32, bool) {
	if g.space != nil {
		frame, _, ok := g.space.Translate(uint32(pa >> 12))
		if !ok {
			return 0, false
		}
		pa = frame<<12 | pa&(hw.PageSize-1)
	}
	return pureRead32(g.mem, pa)
}

// Reader returns the pure 32-bit guest-virtual memory reader (for the
// EBP stack walk and CaptureCode) of the guest whose CPU state is st,
// running in space (its guest-physical memory; nil on bare metal,
// where guest-physical is host-physical) over the host RAM mem. With
// paging on, it probes the guest page tables first.
func Reader(mem *hw.Memory, space *cap.MemSpace, st *x86.CPUState) MemReader {
	g := guestPhys{mem: mem, space: space}
	return func(va uint32) (uint32, bool) {
		pa, ok := uint64(va), true
		if st.PagingEnabled() {
			pa, ok = x86.ProbeGuest(g, st.CR3, st.CR4, va)
		}
		if !ok {
			return 0, false
		}
		return g.ReadPhys32(pa)
	}
}

// Ctx assembles the sampling context of a guest CPU state: the linear
// instruction address, the frame-pointer chain anchors, and the pure
// reader for the stack walk.
func Ctx(st *x86.CPUState, read MemReader) GuestCtx {
	return GuestCtx{
		RIP:       st.Seg[x86.CS].Base + st.EIP,
		Def32:     st.Seg[x86.CS].Def32,
		EBP:       st.GPR[x86.EBP],
		StackBase: st.Seg[x86.SS].Base,
		CodeBase:  st.Seg[x86.CS].Base,
		Read:      read,
	}
}

// Kernel is the read-only view of a microhypervisor that the
// attribution derives through.
type Kernel interface {
	// VCPU returns the register state and guest-physical memory space
	// of the vCPU whose EC id (as event payloads carry it) is id.
	VCPU(id uint64) (*x86.CPUState, *cap.MemSpace, bool)
}

// exitPin is the guest instruction that took a CPU's current VM exit.
type exitPin struct {
	ec    uint64
	rip   uint32
	def32 bool
}

// Attribution derives the profiler's exact-cost attribution and its
// kernel- and emulation-mode samples from a kernel's event stream:
//
//   - vm-exit pins the exiting instruction's linear address before the
//     VMM's reply can rewrite EIP;
//   - the matching vm-resume attributes the whole exit window (its
//     exact modeled cost) to that instruction and gives the sampler a
//     kernel-mode observation point, so exit-handling time lands in the
//     profile under the faulting guest stack;
//   - vtlb-fill is attributed to the instruction whose access missed;
//   - emulate (which the VMM emits inside an EPT-violation exit, just
//     before charging the cost model's EmulateInstruction) is
//     attributed with that cost and gives an emulation-mode
//     observation point at the time the charge ends.
type Attribution struct {
	p       *Profiler
	k       Kernel
	mem     *hw.Memory
	emulate hw.Cycles
	exit    []exitPin // per CPU
}

// NewAttribution derives p's attribution from the events of k, a
// kernel over the host RAM mem whose VMM charges emulate cycles per
// emulated instruction.
func NewAttribution(p *Profiler, k Kernel, mem *hw.Memory, emulate hw.Cycles) *Attribution {
	return &Attribution{p: p, k: k, mem: mem, emulate: emulate, exit: make([]exitPin, len(p.next))}
}

// Observe derives the attribution of one event observed on cpu at
// virtual time now. Nil-safe.
func (a *Attribution) Observe(cpu int, now hw.Cycles, kind trace.Kind, a0, a1, a2 uint64) {
	if a == nil || cpu < 0 || cpu >= len(a.exit) {
		return
	}
	pin := &a.exit[cpu]
	switch kind {
	case trace.KindVMExit:
		if st, _, ok := a.k.VCPU(a2); ok {
			*pin = exitPin{ec: a2, rip: st.Seg[x86.CS].Base + st.EIP, def32: st.Seg[x86.CS].Def32}
		}
	case trace.KindVMResume:
		st, space, ok := a.k.VCPU(a2)
		if !ok {
			return
		}
		a.p.Attribute(AttribExit, pin.rip, pin.def32, a1)
		if w := a.p.due(cpu, now); w > 0 {
			g := Ctx(st, Reader(a.mem, space, st))
			g.RIP, g.Def32 = pin.rip, pin.def32
			a.p.record(cpu, now, w, ModeKernel, g)
		}
	case trace.KindVTLBFill:
		if st, _, ok := a.k.VCPU(a2); ok {
			a.p.Attribute(AttribVTLBFill, st.Seg[x86.CS].Base+st.EIP, st.Seg[x86.CS].Def32, a1)
		}
	case trace.KindEmulate:
		st, _, ok := a.k.VCPU(pin.ec)
		if !ok {
			return
		}
		rip, def32 := st.Seg[x86.CS].Base+uint32(a0), st.Seg[x86.CS].Def32
		a.p.Attribute(AttribEmulate, rip, def32, uint64(a.emulate))
		a.p.Tick(cpu, now+a.emulate, ModeEmulation, GuestCtx{RIP: rip, Def32: def32})
	default:
		// The other kinds carry no exact-cost attribution.
	}
}
