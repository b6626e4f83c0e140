package stat

// The microhypervisor's series, derived from its event stream through
// a read-only view of the kernel (see trace.Kind for each payload).

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/trace"
	"nova/internal/x86"
)

// Kernel is the read-only view of a microhypervisor that the kernel
// series derive through. Ids are the dense object ids event payloads
// carry; ok is false for an id no object has.
type Kernel interface {
	PD(id uint64) (pd PD, ok bool)
	EC(id uint64) (ec EC, ok bool)
	// RunqLen returns the number of scheduling contexts ready on cpu.
	RunqLen(cpu int) int
}

// PD describes one protection domain.
type PD struct {
	Name      string
	Dead      bool
	Caps, Mem int // entries in its capability and memory spaces
}

// EC describes one execution context.
type EC struct {
	Name    string
	PD      uint64 // id of its protection domain
	VCPU    int    // vCPU index within its VM; -1 for a thread
	Dead    bool
	InstRet uint64 // guest instructions a vCPU retired
}

// pdSeries holds one protection domain's handles.
type pdSeries struct{ hypercalls, ipcCalls, ipcWords Counter }

// ecSeries holds one execution context's handles. The vCPU handles
// stay zero (no-ops) for a thread; exits is indexed by exit reason, so
// an exit indexes an array instead of formatting a name.
type ecSeries struct {
	pd                                     uint64
	dispatches, fills, flushes, injections Counter
	exits                                  [x86.NumExitReasons]Counter
	exitLatency                            Histogram
}

// ipcCall is one portal call awaiting its reply.
type ipcCall struct{ uid, pd, words uint64 }

// KernelSeries derives the registry's kernel series from a kernel's
// events: hypercalls, IPC calls and words per PD, dispatches per EC,
// ready-queue wait and depth, IPC latency, and per-vCPU exits, exit
// latency, vTLB fills and flushes, and injections. Handles are created
// on an object's first event; Snapshot drops the counters that never
// moved, so the result does not depend on when the series attached.
type KernelSeries struct {
	r         *Registry
	k         Kernel
	pds       map[uint64]*pdSeries // lookup only — never ranged
	ecs       map[uint64]*ecSeries // lookup only — never ranged
	ipc, wait Histogram
	runq      []Gauge // per CPU

	// caller is, per CPU, the PD of the latest hypercall or VM exit: a
	// portal call is the next kernel event after either, so this is the
	// calling domain even when a VMM calls a server on its own behalf
	// inside a VM-exit handler. calls is the CPU's stack of open calls.
	caller []uint64
	calls  [][]ipcCall
}

// NewKernelSeries derives the series of k, a kernel with cpus CPUs,
// into r, and registers the samplers that read its objects at each
// Snapshot.
func NewKernelSeries(r *Registry, k Kernel, cpus int) *KernelSeries {
	s := &KernelSeries{
		r: r, k: k, pds: map[uint64]*pdSeries{}, ecs: map[uint64]*ecSeries{},
		ipc:    r.Histogram("kernel_ipc_latency_cycles"),
		wait:   r.Histogram("kernel_ready_wait_cycles"),
		caller: make([]uint64, cpus),
		calls:  make([][]ipcCall, cpus),
	}
	for cpu := 0; cpu < cpus; cpu++ {
		s.runq = append(s.runq, r.Gauge(Name("kernel_runq_depth", "cpu", fmt.Sprint(cpu))))
	}
	r.RegisterSampler(s.sample)
	return s
}

// Observe derives the series of one event observed on cpu at virtual
// time now. Nil-safe.
func (s *KernelSeries) Observe(cpu int, now hw.Cycles, kind trace.Kind, a0, a1, a2 uint64) {
	if s == nil || cpu < 0 || cpu >= len(s.caller) {
		return
	}
	switch kind {
	case trace.KindHypercall:
		s.caller[cpu] = a0
		s.pd(a0).hypercalls.Add(now, 1)
	case trace.KindVMExit:
		if e := s.ec(a2); e != nil {
			s.caller[cpu] = e.pd
		}
	case trace.KindIPCCall:
		s.calls[cpu] = append(s.calls[cpu], ipcCall{uid: a0, pd: s.caller[cpu], words: a1})
	case trace.KindIPCReply:
		s.ipc.Observe(now, a1)
		// A call whose handler failed never replies: the reply belongs
		// to the innermost open call through the same portal.
		for i := len(s.calls[cpu]) - 1; i >= 0; i-- {
			if c := s.calls[cpu][i]; c.uid == a0 {
				p := s.pd(c.pd)
				p.ipcCalls.Add(now, 1)
				p.ipcWords.Add(now, c.words)
				s.calls[cpu] = s.calls[cpu][:i]
				break
			}
		}
	case trace.KindSchedDispatch:
		s.calls[cpu] = s.calls[cpu][:0] // no call stays open across a dispatch
		if e := s.ec(a0); e != nil {
			e.dispatches.Add(now, 1)
		}
		s.wait.Observe(now, a2)
		s.runq[cpu].Set(now, uint64(s.k.RunqLen(cpu)))
	case trace.KindVMResume:
		if e := s.ec(a2); e != nil && a0 < uint64(len(e.exits)) {
			e.exits[a0].Add(now, 1)
			e.exitLatency.Observe(now, a1)
		}
	case trace.KindVTLBFill:
		if e := s.ec(a2); e != nil {
			e.fills.Add(now, 1)
		}
	case trace.KindVTLBFlush:
		if e := s.ec(a1); e != nil && a0 != 0xff { // INVLPG prunes one entry: no flush
			e.flushes.Add(now, 1)
		}
	case trace.KindInject:
		if e := s.ec(a1); e != nil {
			e.injections.Add(now, 1)
		}
	default:
		// The other kinds feed no kernel series.
	}
}

// pd returns the handles of the PD with id, creating them on first
// use; an unknown id gets no-op handles.
func (s *KernelSeries) pd(id uint64) *pdSeries {
	if p := s.pds[id]; p != nil {
		return p
	}
	p := &pdSeries{}
	if pd, ok := s.k.PD(id); ok {
		*p = pdSeries{
			hypercalls: s.r.Counter(Name("kernel_hypercalls", "pd", pd.Name)),
			ipcCalls:   s.r.Counter(Name("kernel_ipc_calls", "pd", pd.Name)),
			ipcWords:   s.r.Counter(Name("kernel_ipc_words", "pd", pd.Name)),
		}
		s.pds[id] = p
	}
	return p
}

// ec returns the handles of the EC with id, creating them on first
// use, or nil for an unknown id.
func (s *KernelSeries) ec(id uint64) *ecSeries {
	if e := s.ecs[id]; e != nil {
		return e
	}
	ec, ok := s.k.EC(id)
	if !ok {
		return nil
	}
	e := &ecSeries{pd: ec.PD, dispatches: s.r.Counter(Name("kernel_sched_dispatches", "ec", ec.Name))}
	if ec.VCPU >= 0 {
		vm, _ := s.k.PD(ec.PD)
		label := func(family string, kv ...string) string {
			return Name(family, append([]string{"vm", vm.Name, "vcpu", fmt.Sprint(ec.VCPU)}, kv...)...)
		}
		e.exitLatency = s.r.Histogram(label("kernel_exit_latency_cycles"))
		e.fills = s.r.Counter(label("kernel_vtlb_fills"))
		e.flushes = s.r.Counter(label("kernel_vtlb_flushes"))
		e.injections = s.r.Counter(label("kernel_injections"))
		reasons := x86.ExitReasonNames()
		for i := range e.exits {
			e.exits[i] = s.r.Counter(label("kernel_vmexits", "reason", reasons[i]))
		}
	}
	s.ecs[id] = e
	return e
}

// sample reads the kernel's objects at snapshot time: capabilities and
// memory nodes per live PD, retired instructions per vCPU, and the
// live PD and EC counts.
func (s *KernelSeries) sample(add func(name string, v uint64)) {
	var pds, ecs uint64
	for id := uint64(0); ; id++ {
		pd, ok := s.k.PD(id)
		if !ok {
			break
		}
		if pd.Dead {
			pd.Caps, pd.Mem = 0, 0
		} else {
			pds++
		}
		add(Name("kernel_pd_caps", "pd", pd.Name), uint64(pd.Caps))
		add(Name("kernel_pd_mem_nodes", "pd", pd.Name), uint64(pd.Mem))
	}
	for id := uint64(0); ; id++ {
		ec, ok := s.k.EC(id)
		if !ok {
			break
		}
		if !ec.Dead {
			ecs++
		}
		if ec.VCPU >= 0 {
			vm, _ := s.k.PD(ec.PD)
			add(Name("guest_instructions", "vm", vm.Name, "vcpu", fmt.Sprint(ec.VCPU)), ec.InstRet)
		}
	}
	add(Name("kernel_objects", "kind", "pd"), pds)
	add(Name("kernel_objects", "kind", "ec"), ecs)
}

// SchedCycles adds the cycles the vCPU EC ec ran in one scheduling
// slice ending at now. No event marks the end of a slice, so this one
// kernel series is recorded by the scheduler directly.
func SchedCycles(r *Registry, ec string, now hw.Cycles, used uint64) {
	if r != nil {
		r.Add(Name("kernel_sched_cycles", "ec", ec), now, used)
	}
}

// Devices registers the hardware device-model samplers of plat: DMA
// volume and command/packet counts straight off the hw models.
func Devices(r *Registry, plat *hw.Platform) {
	r.RegisterSampler(func(add func(string, uint64)) {
		if ahci := plat.AHCI; ahci != nil {
			add("hw_ahci_commands", ahci.Stats.Commands)
			add("hw_ahci_dma_bytes", ahci.Stats.DMABytes)
			add("hw_ahci_irqs", ahci.Stats.IRQs)
		}
		if nic := plat.NIC; nic != nil {
			add("hw_nic_rx_packets", nic.Stats.PacketsReceived)
			add("hw_nic_rx_bytes", nic.Stats.BytesReceived)
			add("hw_nic_irqs", nic.Stats.IRQs)
			add("hw_nic_dropped", nic.Stats.PacketsDropped)
		}
	})
}
