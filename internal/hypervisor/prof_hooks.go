package hypervisor

// Profiler plumbing. Everything in this file is host-side observability
// riding the same zero-perturbation contract as the tracer: no cycle
// charges, no guest-visible state changes, no MMIO routing. The memory
// readers handed to the profiler's stack walker therefore go through
// hw.Memory.CodePage — the pure, bounds-checked, MMIO-declining window
// onto RAM — and guest page-table walks run with setAD=false so no
// accessed/dirty bits move.

import (
	"encoding/binary"

	"nova/internal/hw"
	"nova/internal/prof"
	"nova/internal/trace"
	"nova/internal/x86"
)

// pureReadByte reads one byte of host-physical RAM with no side
// effects; MMIO and out-of-range addresses decline.
func pureReadByte(mem *hw.Memory, pa uint64) (byte, bool) {
	data, _, ok := mem.CodePage(hw.PhysAddr(pa))
	if !ok {
		return 0, false
	}
	return data[pa&(hw.PageSize-1)], true
}

// pureRead32 reads a little-endian 32-bit word of host-physical RAM
// with no side effects.
func pureRead32(mem *hw.Memory, pa uint64) (uint32, bool) {
	data, _, ok := mem.CodePage(hw.PhysAddr(pa))
	if !ok {
		return 0, false
	}
	off := pa & (hw.PageSize - 1)
	if off+4 <= hw.PageSize {
		return binary.LittleEndian.Uint32(data[off:]), true
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		b, ok := pureReadByte(mem, pa+i)
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * i)
	}
	return v, true
}

// profPhys adapts guest-physical space as x86.PhysMem for the
// profiler's side-effect-free page-table walks. With pd nil, addresses
// are host-physical already (bare metal).
type profPhys struct {
	mem *hw.Memory
	pd  *PD
}

func (p profPhys) ReadPhys32(pa uint64) (uint32, bool) {
	if p.pd != nil {
		hpa, _, ok := hostTranslate(p.pd, pa)
		if !ok {
			return 0, false
		}
		pa = hpa
	}
	return pureRead32(p.mem, pa)
}

// WritePhys32 always declines: profiler walks run with setAD=false and
// must stay read-only even if that ever changes.
func (p profPhys) WritePhys32(pa uint64, v uint32) bool { return false }

// profTranslate resolves a guest-virtual address to host-physical with
// no side effects: a pure walk of the guest page tables (when paging is
// on) followed by the domain's host translation. Any failure declines.
func profTranslate(mem *hw.Memory, pd *PD, st *x86.CPUState, va uint32) (uint64, bool) {
	pa := uint64(va)
	if st.PagingEnabled() {
		w, exc := x86.WalkGuest(profPhys{mem: mem, pd: pd}, st.CR3, st.CR4, va, false, false, false)
		if exc != nil {
			return 0, false
		}
		pa = w.PA
	}
	if pd != nil {
		hpa, _, ok := hostTranslate(pd, pa)
		if !ok {
			return 0, false
		}
		pa = hpa
	}
	return pa, true
}

// profGuestReader builds the pure 32-bit guest-virtual memory reader
// the profiler's EBP stack walker uses. pd nil means bare metal
// (guest-physical = host-physical).
func profGuestReader(mem *hw.Memory, pd *PD, st *x86.CPUState) prof.MemReader {
	return func(va uint32) (uint32, bool) {
		pa, ok := profTranslate(mem, pd, st, va)
		if !ok {
			return 0, false
		}
		return pureRead32(mem, pa)
	}
}

// profGuestByteReader is the byte-granular variant, for post-run code
// capture at hot addresses.
func profGuestByteReader(mem *hw.Memory, pd *PD, st *x86.CPUState) func(uint32) (byte, bool) {
	return func(va uint32) (byte, bool) {
		pa, ok := profTranslate(mem, pd, st, va)
		if !ok {
			return 0, false
		}
		return pureReadByte(mem, pa)
	}
}

// profCtx assembles the sampling context from a guest CPU state: the
// linear instruction address, the frame-pointer chain anchors, and the
// pure reader for the stack walk.
func profCtx(st *x86.CPUState, read prof.MemReader) prof.GuestCtx {
	return prof.GuestCtx{
		RIP:       st.Seg[x86.CS].Base + st.EIP,
		Def32:     st.Seg[x86.CS].Def32,
		EBP:       st.GPR[x86.EBP],
		StackBase: st.Seg[x86.SS].Base,
		CodeBase:  st.Seg[x86.CS].Base,
		Read:      read,
	}
}

// profEvent derives the profiler's exit and vTLB-fill attribution from
// one kernel event. A VM exit pins the exiting instruction's linear
// address before the VMM's reply can rewrite EIP; the matching resume
// attributes the whole exit window (its exact modeled cost) to that
// instruction and gives the sampler a kernel-mode observation point,
// so exit-handling time lands in the profile under the faulting guest
// stack. A fill is attributed to the instruction whose access missed.
func (k *Kernel) profEvent(now hw.Cycles, kind trace.Kind, a1, a2 uint64) {
	switch kind {
	case trace.KindVMExit:
		if v := k.vcpuByID(a2); v != nil {
			v.exitRIP, v.exitDef32 = v.State.Seg[x86.CS].Base+v.State.EIP, v.State.Seg[x86.CS].Def32
		}
	case trace.KindVMResume:
		if v := k.vcpuByID(a2); v != nil {
			k.Prof.Attribute(prof.AttribExit, v.exitRIP, v.exitDef32, a1)
			g := profCtx(&v.State, v.profRead)
			g.RIP, g.Def32 = v.exitRIP, v.exitDef32
			k.Prof.Tick(k.cpu, now, prof.ModeKernel, g)
		}
	case trace.KindVTLBFill:
		if v := k.vcpuByID(a2); v != nil {
			k.Prof.Attribute(prof.AttribVTLBFill, v.State.Seg[x86.CS].Base+v.State.EIP, v.State.Seg[x86.CS].Def32, a1)
		}
	default:
		// The other kinds carry no exact-cost attribution.
	}
}

// ProfEmulate records one VMM-emulated instruction: exact-cost
// attribution at the guest address plus an emulation-mode observation
// point. Called by the VMM after it charges the emulation cost.
//
// nocharge: observability plumbing; the emulation work itself is
// charged by the VMM through ChargeUser at the call site.
func (k *Kernel) ProfEmulate(rip uint32, def32 bool, cycles hw.Cycles) {
	if k.Prof == nil {
		return
	}
	k.Prof.Attribute(prof.AttribEmulate, rip, def32, uint64(cycles))
	k.Prof.Tick(k.cpu, k.Now(), prof.ModeEmulation, prof.GuestCtx{RIP: rip, Def32: def32})
}

// AttachProfiler enables virtual-time sampling with one buffer of the
// given capacity per CPU and a sampling grid of period cycles, and
// returns the profiler for later encoding. The run loop samples guest
// execution at the grid points; exit and fill attribution derive from
// the events Emit already sees.
//
// nocharge: observability plumbing; attaching the profiler models no
// hardware work and must not move the clocks (zero-perturbation rule).
func (k *Kernel) AttachProfiler(period uint64, capacity int) *prof.Profiler {
	k.Prof = prof.New(len(k.Plat.CPUs), period, capacity)
	k.observed = true
	return k.Prof
}

// ProfCodeReader returns a pure byte reader over ec's guest address
// space, for Profiler.CaptureCode after a run.
func (k *Kernel) ProfCodeReader(ec *EC) func(uint32) (byte, bool) {
	return profGuestByteReader(k.Plat.Mem, ec.PD, &ec.VCPU.State)
}
