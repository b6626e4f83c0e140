package obs

// Attaching recorders: this is the one place that wires the tracer,
// the profiler, the stat registry and the span recorder to a kernel or
// a native run, and the kernel's one observer hook to the derivations
// in internal/trace, internal/stat and internal/prof.

import (
	"nova/internal/cap"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

// profCapacity is the per-CPU sample-buffer capacity of an attached
// profiler.
const profCapacity = 65536

// Recorders are the recorders attached to one run; nil ones are off.
type Recorders struct {
	Tracer *trace.Tracer
	Prof   *prof.Profiler
	Stat   *stat.Registry
	Spans  *span.Recorder
}

// Attach attaches recorders to k and returns them: the tracer with
// per-CPU rings of traceCap events, the profiler sampling every
// profPeriod cycles, the stat registry with epochs of statEpoch cycles
// and the span recorder with per-CPU rings of spanCap records. A zero
// argument leaves its recorder off. Attached at any point, the
// recorders see what happens from then on.
func Attach(k *hypervisor.Kernel, traceCap int, profPeriod uint64, statEpoch hw.Cycles, spanCap int) Recorders {
	cpus := len(k.Plat.CPUs)
	var r Recorders
	o := &observer{}
	if traceCap > 0 {
		r.Tracer = trace.New(cpus, traceCap)
		o.tracer = r.Tracer
	}
	if profPeriod > 0 {
		r.Prof = prof.New(cpus, profPeriod, profCapacity)
		o.attrib = prof.NewAttribution(r.Prof, view{k}, k.Plat.Mem, k.Plat.Cost.EmulateInstruction)
	}
	if statEpoch != 0 {
		r.Stat = stat.New(statEpoch)
		o.series = stat.NewKernelSeries(r.Stat, view{k}, cpus)
		stat.Devices(r.Stat, k.Plat)
	}
	if spanCap > 0 {
		r.Spans = span.New(cpus, spanCap)
	}
	if *o != (observer{}) {
		k.Observer = o
	}
	k.Tracer, k.Prof, k.Stat, k.Spans = r.Tracer, r.Prof, r.Stat, r.Spans
	return r
}

// AttachBareMetal attaches the profiler and the stat registry (retired
// instructions and device totals) to a native run, like Attach; a
// native run has no kernel events to trace and no requests to span.
func AttachBareMetal(b *hypervisor.BareMetal, profPeriod uint64, statEpoch hw.Cycles) Recorders {
	var r Recorders
	if profPeriod > 0 {
		r.Prof = prof.New(len(b.Plat.CPUs), profPeriod, profCapacity)
		b.Prof = r.Prof
	}
	if statEpoch != 0 {
		r.Stat = stat.New(statEpoch)
		r.Stat.RegisterSampler(func(add func(string, uint64)) {
			add(stat.Name("guest_instructions", "vm", "native", "vcpu", "0"), b.Interp.InstRet)
		})
		stat.Devices(r.Stat, b.Plat)
	}
	return r
}

// observer is the kernel's observer: it hands each event to the
// tracer and to the stat and profiler derivations.
type observer struct {
	tracer *trace.Tracer
	series *stat.KernelSeries
	attrib *prof.Attribution
}

func (o *observer) Observe(cpu int, now hw.Cycles, kind trace.Kind, a0, a1, a2, a3 uint64) {
	o.tracer.Emit(cpu, now, kind, a0, a1, a2, a3)
	o.series.Observe(cpu, now, kind, a0, a1, a2)
	o.attrib.Observe(cpu, now, kind, a0, a1, a2)
}

// view is the read-only window onto a kernel that the stat series and
// the profiler's attribution derive through.
type view struct{ k *hypervisor.Kernel }

func (v view) PD(id uint64) (stat.PD, bool) {
	pd := v.k.PDByID(id)
	if pd == nil {
		return stat.PD{}, false
	}
	return stat.PD{Name: pd.Name, Dead: pd.Dead(), Caps: pd.Caps.Len(), Mem: pd.Mem.Len()}, true
}

func (v view) EC(id uint64) (stat.EC, bool) {
	ec := v.k.ECByID(id)
	if ec == nil {
		return stat.EC{}, false
	}
	e := stat.EC{Name: ec.Name, PD: uint64(ec.PD.ID), VCPU: -1, Dead: ec.Dead()}
	if vcpu := ec.VCPU; vcpu != nil {
		e.VCPU, e.InstRet = vcpu.Index, vcpu.Interp.InstRet
	}
	return e, true
}

func (v view) RunqLen(cpu int) int { return v.k.RunqLen(cpu) }

func (v view) VCPU(id uint64) (*x86.CPUState, *cap.MemSpace, bool) {
	ec := v.k.ECByID(id)
	if ec == nil || ec.VCPU == nil {
		return nil, nil, false
	}
	return &ec.VCPU.State, ec.PD.Mem, true
}
