package hypervisor

// Resource-accounting plumbing. Everything in this file is host-side
// observability riding the same zero-perturbation contract as the
// tracer and profiler: no cycle charges, no guest-visible state
// changes, no wall-clock reads. Kernel events feed the registry through
// statEvent, derived from each event's payload at Kernel.Emit, and the
// invisibility matrix in internal/guest proves stats-on and stats-off
// runs are bit-identical.

import (
	"fmt"

	"nova/internal/hw"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

// pdStats caches the per-PD metric handles (attributed by PD name).
type pdStats struct {
	hypercalls stat.Counter
	ipcCalls   stat.Counter
	ipcWords   stat.Counter
}

func (s *pdStats) ipc(now hw.Cycles, words uint64) {
	if s == nil {
		return
	}
	s.ipcCalls.Add(now, 1)
	s.ipcWords.Add(now, words)
}

// ecStats caches the per-EC scheduler metric handles.
type ecStats struct {
	dispatches stat.Counter
	ranCycles  stat.Counter
}

func (s *ecStats) ran(now hw.Cycles, used uint64) {
	if s == nil {
		return
	}
	s.ranCycles.Add(now, used)
}

// vcpuStats caches the per-vCPU metric handles: one exit counter per
// reason (so an exit indexes an array instead of formatting a name),
// the exit-latency histogram, vTLB activity and injections.
type vcpuStats struct {
	exits       [x86.NumExitReasons]stat.Counter
	exitLatency stat.Histogram
	fills       stat.Counter
	flushes     stat.Counter
	injections  stat.Counter
}

// attachStatPD builds the per-PD handles and registers the live
// capability/object-count samplers for one protection domain.
func (k *Kernel) attachStatPD(pd *PD) {
	r := k.Stat
	pd.stats = &pdStats{
		hypercalls: r.Counter(stat.Name("kernel_hypercalls", "pd", pd.Name)),
		ipcCalls:   r.Counter(stat.Name("kernel_ipc_calls", "pd", pd.Name)),
		ipcWords:   r.Counter(stat.Name("kernel_ipc_words", "pd", pd.Name)),
	}
	r.RegisterSampler(stat.Name("kernel_pd_caps", "pd", pd.Name), func() uint64 {
		if pd.dead {
			return 0
		}
		return uint64(pd.Caps.Len())
	})
	r.RegisterSampler(stat.Name("kernel_pd_mem_nodes", "pd", pd.Name), func() uint64 {
		if pd.dead {
			return 0
		}
		return uint64(pd.Mem.Len())
	})
}

// attachStatEC builds the per-EC scheduler handles and, for vCPUs, the
// per-vCPU exit/vTLB/injection handles plus the retired-instruction
// sampler.
func (k *Kernel) attachStatEC(ec *EC) {
	r := k.Stat
	ec.stats = &ecStats{
		dispatches: r.Counter(stat.Name("kernel_sched_dispatches", "ec", ec.Name)),
		ranCycles:  r.Counter(stat.Name("kernel_sched_cycles", "ec", ec.Name)),
	}
	if ec.Kind != ECVCPU {
		return
	}
	v := ec.VCPU
	vm := ec.PD.Name
	vcpu := fmt.Sprintf("%d", v.Index)
	vs := &vcpuStats{
		exitLatency: r.Histogram(stat.Name("kernel_exit_latency_cycles", "vm", vm, "vcpu", vcpu)),
		fills:       r.Counter(stat.Name("kernel_vtlb_fills", "vm", vm, "vcpu", vcpu)),
		flushes:     r.Counter(stat.Name("kernel_vtlb_flushes", "vm", vm, "vcpu", vcpu)),
		injections:  r.Counter(stat.Name("kernel_injections", "vm", vm, "vcpu", vcpu)),
	}
	reasons := x86.ExitReasonNames()
	for i := range vs.exits {
		vs.exits[i] = r.Counter(stat.Name("kernel_vmexits", "vm", vm, "vcpu", vcpu, "reason", reasons[i]))
	}
	v.stats = vs
	r.RegisterSampler(stat.Name("guest_instructions", "vm", vm, "vcpu", vcpu), func() uint64 {
		return v.Interp.InstRet
	})
}

// statEvent derives the registry's kernel series from one event's
// payload: hypercalls per PD, dispatches, ready-queue wait and depth,
// IPC latency, and per-vCPU exits, exit latency, vTLB fills and
// flushes, and injections.
func (k *Kernel) statEvent(now hw.Cycles, kind trace.Kind, a0, a1, a2 uint64) {
	switch kind {
	case trace.KindHypercall:
		if pd := k.pdByID(a0); pd != nil && pd.stats != nil {
			pd.stats.hypercalls.Add(now, 1)
		}
	case trace.KindSchedDispatch:
		if ec := k.ecByID(a0); ec != nil && ec.stats != nil {
			ec.stats.dispatches.Add(now, 1)
		}
		k.statReadyWait.Observe(now, a2)
		if k.cpu < len(k.statRunqDepth) {
			k.statRunqDepth[k.cpu].Set(now, uint64(k.runq[k.cpu].count))
		}
	case trace.KindIPCReply:
		k.statIPCLatency.Observe(now, a1)
	case trace.KindVMResume:
		if s := k.vcpuStats(a2); s != nil && a0 < uint64(len(s.exits)) {
			s.exits[a0].Add(now, 1)
			s.exitLatency.Observe(now, a1)
		}
	case trace.KindVTLBFill:
		if s := k.vcpuStats(a2); s != nil {
			s.fills.Add(now, 1)
		}
	case trace.KindVTLBFlush:
		if s := k.vcpuStats(a1); s != nil && a0 != 0xff { // INVLPG prunes one entry: no flush
			s.flushes.Add(now, 1)
		}
	case trace.KindInject:
		if s := k.vcpuStats(a1); s != nil {
			s.injections.Add(now, 1)
		}
	default:
		// The other kinds feed no kernel series.
	}
}

// vcpuStats returns the accounting handles of the vCPU with EC id id,
// or nil.
func (k *Kernel) vcpuStats(id uint64) *vcpuStats {
	if v := k.vcpuByID(id); v != nil {
		return v.stats
	}
	return nil
}

// statObjects registers the kernel-wide live object-count samplers.
func (k *Kernel) statObjects() {
	r := k.Stat
	r.RegisterSampler(stat.Name("kernel_objects", "kind", "pd"), func() uint64 {
		n := uint64(0)
		for _, pd := range k.pds {
			if !pd.dead {
				n++
			}
		}
		return n
	})
	r.RegisterSampler(stat.Name("kernel_objects", "kind", "ec"), func() uint64 {
		n := uint64(0)
		for _, ec := range k.ecs {
			if !ec.dead {
				n++
			}
		}
		return n
	})
}

// statDevices registers the hardware device-model accounting samplers:
// DMA volume and command/packet counts straight off the hw models.
func statDevices(r *stat.Registry, plat *hw.Platform) {
	if ahci := plat.AHCI; ahci != nil {
		r.RegisterSampler("hw_ahci_commands", func() uint64 { return ahci.Stats.Commands })
		r.RegisterSampler("hw_ahci_dma_bytes", func() uint64 { return ahci.Stats.DMABytes })
		r.RegisterSampler("hw_ahci_irqs", func() uint64 { return ahci.Stats.IRQs })
	}
	if nic := plat.NIC; nic != nil {
		r.RegisterSampler("hw_nic_rx_packets", func() uint64 { return nic.Stats.PacketsReceived })
		r.RegisterSampler("hw_nic_rx_bytes", func() uint64 { return nic.Stats.BytesReceived })
		r.RegisterSampler("hw_nic_irqs", func() uint64 { return nic.Stats.IRQs })
		r.RegisterSampler("hw_nic_dropped", func() uint64 { return nic.Stats.PacketsDropped })
	}
}

// AttachStats enables resource accounting with the given virtual-time
// epoch length (zero selects stat.DefaultEpochLen) and returns the
// registry for later snapshotting. Existing PDs and ECs get their
// metric handles retrofitted; objects created afterwards are hooked at
// creation.
//
// nocharge: observability plumbing; attaching the registry models no
// hardware work and must not move the clocks (zero-perturbation rule).
func (k *Kernel) AttachStats(epochLen hw.Cycles) *stat.Registry {
	r := stat.New(epochLen)
	k.Stat = r
	k.observed = true
	k.statIPCLatency = r.Histogram("kernel_ipc_latency_cycles")
	k.statReadyWait = r.Histogram("kernel_ready_wait_cycles")
	k.statRunqDepth = k.statRunqDepth[:0]
	for cpu := range k.Plat.CPUs {
		k.statRunqDepth = append(k.statRunqDepth,
			r.Gauge(stat.Name("kernel_runq_depth", "cpu", fmt.Sprintf("%d", cpu))))
	}
	for _, pd := range k.pds {
		k.attachStatPD(pd)
	}
	for _, ec := range k.ecs {
		k.attachStatEC(ec)
	}
	k.statObjects()
	statDevices(r, k.Plat)
	return r
}
