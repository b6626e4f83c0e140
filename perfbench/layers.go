package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"nova/internal/cap"
	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/x86"
)

// layerMetric is one per-layer metric: what it measures and which
// end-to-end metric, on which workload, it should move. BENCHMARK.json
// declares the same names, units and directions.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// layerMetrics lists every per-layer metric of a traced run, grouped by
// the repository module it measures.
var layerMetrics = []layerMetric{
	// x86: the interpreter, decoder, decode cache and superblocks.
	{"x86.insts", "count", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.fused_share", "ratio", "higher", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.sb_built", "count", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.sb_invalidated", "count", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.decode_ns", "ns", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.step_ns", "ns", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.fused_ns", "ns", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	{"x86.host_share", "ratio", "lower", "guest_mips on compile-ept most, then compile-vtlb; little on disk-rw"},
	// hw TLB.
	{"hw.tlb_hits", "count", "higher", "lookups: guest_mips on compile-ept; none on disk-rw"},
	{"hw.tlb_misses", "count", "lower", "lookups: guest_mips on compile-ept; fills: compile-vtlb; none on disk-rw"},
	{"hw.tlb_hit_ratio", "ratio", "higher", "lookups: guest_mips on compile-ept; none on disk-rw"},
	{"hw.tlb_evictions", "count", "lower", "insert: guest_mips on compile-vtlb; none on disk-rw"},
	{"hw.tlb_flushed", "count", "lower", "flush: guest_mips on compile-vtlb; none on disk-rw"},
	{"hw.tlb_lookup_hit_ns", "ns", "lower", "guest_mips on compile-ept, then compile-vtlb; none on disk-rw"},
	{"hw.tlb_lookup_miss_ns", "ns", "lower", "guest_mips on compile-ept, then compile-vtlb; none on disk-rw"},
	{"hw.tlb_insert_ns", "ns", "lower", "guest_mips on compile-vtlb; none on disk-rw"},
	{"hw.tlb_flush_ns", "ns", "lower", "guest_mips on compile-vtlb; none on disk-rw"},
	{"hw.tlb.host_share", "ratio", "lower", "guest_mips on compile-ept and compile-vtlb; none on disk-rw"},
	// hw platform: memory, PIC, PIT, event queue, AHCI.
	{"hw.new_platform_ms", "ms", "lower", "setup_s everywhere"},
	{"hw.ahci_commands", "count", "lower", "sim_mhz on disk-rw"},
	{"hw.dma_bytes", "bytes", "lower", "sim_mhz on disk-rw"},
	{"hw.host_share", "ratio", "lower", "setup_s everywhere; sim_mhz on disk-rw"},
	// hypervisor and cap: VM exits, portal IPC, vTLB, capability spaces.
	{"hypervisor.new_kernel_ms", "ms", "lower", "setup_s and alloc_mb on all, relatively most on disk-rw"},
	{"hypervisor.vm_exits", "count", "lower", "ops_per_s on disk-rw; none on compile-ept"},
	{"hypervisor.vtlb_fills", "count", "lower", "guest_mips on compile-vtlb"},
	{"hypervisor.vtlb_flushes", "count", "lower", "guest_mips on compile-vtlb"},
	{"hypervisor.ipc_calls", "count", "lower", "ops_per_s on disk-rw"},
	{"hypervisor.hypercalls", "count", "lower", "ops_per_s on disk-rw"},
	{"hypervisor.injections", "count", "lower", "ops_per_s on disk-rw"},
	{"hypervisor.ipc_rt_ns", "ns", "lower", "ops_per_s on disk-rw; none on compile-ept"},
	{"hypervisor.vtlb_fill_ns", "ns", "lower", "guest_mips on compile-vtlb; none on compile-ept"},
	{"hypervisor.host_share", "ratio", "lower", "ops_per_s on disk-rw; guest_mips on compile-vtlb; none on compile-ept"},
	{"cap.host_share", "ratio", "lower", "setup_s and alloc_mb on all, relatively most on disk-rw"},
	// vmm: device models and instruction emulation.
	{"vmm.emulated", "count", "lower", "ops_per_s and sim_mhz on disk-rw"},
	{"vmm.disk_requests", "count", "lower", "ops_per_s and sim_mhz on disk-rw"},
	{"vmm.pio_exit_ns", "ns", "lower", "ops_per_s and sim_mhz on disk-rw"},
	{"vmm.host_share", "ratio", "lower", "ops_per_s and sim_mhz on disk-rw"},
	// services: the disk server.
	{"services.dma_bytes", "bytes", "lower", "ops_per_s on disk-rw"},
	{"services.host_share", "ratio", "lower", "ops_per_s on disk-rw"},
	// guest: kernel assembly and machine construction.
	{"guest.build_ms", "ms", "lower", "setup_s and alloc_mb"},
	{"guest.new_runner_ms", "ms", "lower", "setup_s and alloc_mb"},
	// Go runtime and the cost of tracing itself.
	{"runtime.gc_s", "s", "lower", "alloc_mb; guest_mips where the hot path allocates"},
	{"runtime.host_share", "ratio", "lower", "alloc_mb; guest_mips where the hot path allocates"},
	{"trace.overhead", "ratio", "lower", "none: traced over untraced run-phase time, minus 1"},
}

// layerCounts reads the counters the modules export after a run. They
// are simulated quantities or host-side cache counters, identical on
// every repetition of a job.
func layerCounts(r *guest.Runner) map[string]float64 {
	m := map[string]float64{}
	v := r.VCPU()
	sb := v.Interp.Cache.SB
	insts := float64(r.InstRet())
	m["x86.insts"] = insts
	m["x86.fused_share"] = ratio(float64(sb.Fused), insts)
	m["x86.sb_built"] = float64(sb.Built)
	m["x86.sb_invalidated"] = float64(sb.Invalidated)

	var tlb hw.TLBStats
	for _, c := range r.Plat.CPUs {
		s := c.TLB.Stats
		tlb.Hits += s.Hits
		tlb.Misses += s.Misses
		tlb.Evictions += s.Evictions
		tlb.FlushedEnt += s.FlushedEnt
	}
	m["hw.tlb_hits"] = float64(tlb.Hits)
	m["hw.tlb_misses"] = float64(tlb.Misses)
	m["hw.tlb_hit_ratio"] = ratio(float64(tlb.Hits), float64(tlb.Hits+tlb.Misses))
	m["hw.tlb_evictions"] = float64(tlb.Evictions)
	m["hw.tlb_flushed"] = float64(tlb.FlushedEnt)

	ahci := r.Plat.AHCI.Stats
	m["hw.ahci_commands"] = float64(ahci.Commands)
	m["hw.dma_bytes"] = float64(ahci.DMABytes)

	ks := r.K.Stats
	m["hypervisor.vm_exits"] = float64(v.TotalExits())
	m["hypervisor.vtlb_fills"] = float64(ks.VTLBFills)
	m["hypervisor.vtlb_flushes"] = float64(ks.VTLBFlushes)
	m["hypervisor.ipc_calls"] = float64(ks.IPCCalls)
	m["hypervisor.hypercalls"] = float64(ks.Hypercalls)
	m["hypervisor.injections"] = float64(ks.Injections)

	m["vmm.emulated"] = float64(r.VMM.Stats.Emulated)
	m["vmm.disk_requests"] = float64(r.VMM.Stats.DiskRequests)
	if r.DS != nil {
		m["services.dma_bytes"] = float64(r.DS.Stats.Sectors * hw.SectorSize)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- microbenchmarks ----

// microSamples is how many timed batches each microbenchmark takes.
const microSamples = 11

// microBatch is the host time one timed batch aims for.
const microBatch = 4 * time.Millisecond

// batchFunc performs about n operations and returns how many it did and
// the host time they took (excluding any untimed preparation).
type batchFunc func(n int) (ops int, elapsed time.Duration)

// micro times f in microSamples batches, after growing the batch until
// it takes at least microBatch, and summarizes the time per operation
// in unit.
func micro(unit time.Duration, f batchFunc) (summary, error) {
	n := 1
	var per []float64
	for len(per) < microSamples {
		ops, el := f(n)
		if ops <= 0 {
			return summary{}, fmt.Errorf("microbenchmark did no work")
		}
		if len(per) == 0 && el < microBatch && n < 1<<30 {
			n *= 2
			continue
		}
		per = append(per, float64(el)/float64(unit)/float64(ops))
	}
	return summarize(per), nil
}

// microbenchmarks times calls into each layer's public functions. The
// workload's kernel image feeds the decoder benchmark.
func microbenchmarks(j job) (map[string]summary, error) {
	img, err := guest.Build(j.kernel)
	if err != nil {
		return nil, err
	}
	type bench struct {
		name string
		unit time.Duration
		make func() (batchFunc, error)
	}
	benches := []bench{
		{"x86.decode_ns", time.Nanosecond, func() (batchFunc, error) { return decodeBatch(img), nil }},
		{"x86.step_ns", time.Nanosecond, func() (batchFunc, error) { return hotLoopBatch(true) }},
		{"x86.fused_ns", time.Nanosecond, func() (batchFunc, error) { return hotLoopBatch(false) }},
		{"hw.tlb_lookup_hit_ns", time.Nanosecond, func() (batchFunc, error) { return tlbLookupBatch(true), nil }},
		{"hw.tlb_lookup_miss_ns", time.Nanosecond, func() (batchFunc, error) { return tlbLookupBatch(false), nil }},
		{"hw.tlb_insert_ns", time.Nanosecond, func() (batchFunc, error) { return tlbInsertBatch(), nil }},
		{"hw.tlb_flush_ns", time.Nanosecond, func() (batchFunc, error) { return tlbFlushBatch(), nil }},
		{"hw.new_platform_ms", time.Millisecond, func() (batchFunc, error) { return newPlatformBatch(), nil }},
		{"hypervisor.new_kernel_ms", time.Millisecond, func() (batchFunc, error) { return newKernelBatch(), nil }},
		{"hypervisor.ipc_rt_ns", time.Nanosecond, ipcBatch},
		{"hypervisor.vtlb_fill_ns", time.Nanosecond, vtlbFillBatch},
		{"vmm.pio_exit_ns", time.Nanosecond, pioExitBatch},
	}
	out := map[string]summary{}
	for _, b := range benches {
		f, err := b.make()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		s, err := micro(b.unit, f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		out[b.name] = s
	}
	return out, nil
}

// decodeBatch decodes the instructions of a kernel image with
// x86.Decode, in 32-bit mode, cycling over the offsets where a linear
// sweep finds an instruction.
func decodeBatch(img []byte) batchFunc {
	var offs []int
	for off := 0; off < len(img); {
		inst, err := x86.Decode(&x86.BytesFetcher{Data: img[off:]}, true)
		if err != nil || inst.Len == 0 {
			off++
			continue
		}
		offs = append(offs, off)
		off += int(inst.Len)
	}
	return func(n int) (int, time.Duration) {
		t := time.Now()
		for i := 0; i < n; i++ {
			off := offs[i%len(offs)]
			if _, err := x86.Decode(&x86.BytesFetcher{Data: img[off:]}, true); err != nil {
				return 0, 0
			}
		}
		return n, time.Since(t)
	}
}

// hotLoopBatch runs guest.ComputeKernel's memory-walk loop natively
// with BareMetal.Run, single-stepping (step) or with superblocks, and
// counts retired guest instructions.
func hotLoopBatch(step bool) (batchFunc, error) {
	r, err := guest.NewRunner(guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeNative,
		DisableSuperblocks: step}, guest.MustBuild(guest.ComputeKernel(false, false, 0)))
	if err != nil {
		return nil, err
	}
	params := make([]byte, 8)
	binary.LittleEndian.PutUint32(params[0:], 1<<30) // effectively endless
	binary.LittleEndian.PutUint32(params[4:], 64<<10)
	r.WriteGuest(guest.ParamBase, params)
	return func(n int) (int, time.Duration) {
		ret0 := r.BM.Interp.InstRet
		t := time.Now()
		for r.BM.Interp.InstRet-ret0 < uint64(n) {
			if err := r.BM.Run(r.Clock().Now() + 100_000); err != nil {
				return 0, 0
			}
		}
		return int(r.BM.Interp.InstRet - ret0), time.Since(t)
	}, nil
}

// newTLB returns a TLB of the platform's default geometry.
func newTLB() *hw.TLB { return hw.NewTLB(512, 32, 2<<20) }

// tlbLookupBatch looks up 256 resident small-page translations (hit) or
// translations under an absent tag (miss).
func tlbLookupBatch(hit bool) batchFunc {
	t := newTLB()
	for i := uint32(0); i < 256; i++ {
		t.InsertSmall(1, i<<12, uint64(i), true, false, false)
	}
	tag := hw.TLBTag(1)
	if !hit {
		tag = 2
	}
	return func(n int) (int, time.Duration) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, ok := t.Lookup(tag, uint32(i&255)<<12); ok != hit {
				return 0, 0
			}
		}
		return n, time.Since(start)
	}
}

// tlbInsertBatch inserts small-page translations into a full TLB, so
// every insert evicts (the steady state of a TLB under pressure).
func tlbInsertBatch() batchFunc {
	t := newTLB()
	next := uint32(0)
	return func(n int) (int, time.Duration) {
		start := time.Now()
		for i := 0; i < n; i++ {
			t.InsertSmall(1, (next&0xfffff)<<12, uint64(next), true, false, false)
			next++
		}
		return n, time.Since(start)
	}
}

// tlbFlushBatch times FlushTag on a full TLB holding two address-space
// tags (a tagged CR3 switch); the refill before each flush is untimed.
func tlbFlushBatch() batchFunc {
	t := newTLB()
	return func(n int) (int, time.Duration) {
		var el time.Duration
		for i := 0; i < n; i++ {
			for v := uint32(0); v < 256; v++ {
				t.InsertSmall(1, v<<12, uint64(v), true, false, false)
				t.InsertSmall(2, v<<12, uint64(v), true, false, false)
			}
			start := time.Now()
			t.FlushTag(1)
			el += time.Since(start)
		}
		return n, el
	}
}

// machineRAM is the RAM size guest.NewRunner gives its platform.
const machineRAM = 64 << 20

// newPlatformBatch times hw.NewPlatform as guest.NewRunner calls it.
func newPlatformBatch() batchFunc {
	return func(n int) (int, time.Duration) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := hw.NewPlatform(hw.Config{Model: hw.BLM, RAMSize: machineRAM}); err != nil {
				return 0, 0
			}
		}
		return n, time.Since(start)
	}
}

// newKernelBatch times hypervisor.New, root capability spaces included,
// on platforms built beforehand (untimed).
func newKernelBatch() batchFunc {
	return func(n int) (int, time.Duration) {
		var el time.Duration
		for i := 0; i < n; i++ {
			plat, err := hw.NewPlatform(hw.Config{Model: hw.BLM, RAMSize: machineRAM})
			if err != nil {
				return 0, 0
			}
			start := time.Now()
			hypervisor.New(plat, hypervisor.Config{UseVPID: true})
			el += time.Since(start)
		}
		return n, el
	}
}

// ipcBatch times Kernel.Call round trips through a portal between two
// protection domains (the Figure 8 primitive).
func ipcBatch() (batchFunc, error) {
	plat, err := hw.NewPlatform(hw.Config{Model: hw.BLM, RAMSize: 32 << 20})
	if err != nil {
		return nil, err
	}
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	client, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "client", false)
	if err != nil {
		return nil, err
	}
	server, err := k.CreatePD(k.Root, k.Root.Caps.AllocSel(), "server", false)
	if err != nil {
		return nil, err
	}
	srvSel := server.Caps.AllocSel()
	if _, err := k.CreatePortal(server, srvSel, "bench", 0, 0,
		func(*hypervisor.UTCB) error { return nil }); err != nil {
		return nil, err
	}
	const clientSel = 100
	if err := server.Caps.Delegate(srvSel, client.Caps, clientSel, cap.RightCall); err != nil {
		return nil, err
	}
	msg := &hypervisor.UTCB{Words: []uint64{1, 2}}
	return func(n int) (int, time.Duration) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := k.Call(client, clientSel, msg); err != nil {
				return 0, 0
			}
		}
		return n, time.Since(start)
	}, nil
}

// vtlbFillBatch runs a guest that reloads CR3 and then touches one
// dword in each of 256 pages, forever, under shadow paging: every touch
// is a vTLB miss filled by the kernel (the Figure 9 loop). It reports
// host time per fill.
func vtlbFillBatch() (batchFunc, error) {
	img, err := guest.Build(guest.KernelOpts{Paging: true, MapMB: 8, Workload: `
vf_loop:
	mov eax, cr3
	mov cr3, eax
	mov esi, 0x100000
	mov ecx, 256
vf_touch:
	mov eax, [esi]
	add esi, 4096
	dec ecx
	jnz vf_touch
	jmp vf_loop
`})
	if err != nil {
		return nil, err
	}
	r, err := guest.NewRunner(guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtVTLB,
		UseVPID: true, SchedTimerHz: -1}, img)
	if err != nil {
		return nil, err
	}
	return func(n int) (int, time.Duration) {
		fills0 := r.K.Stats.VTLBFills
		start := time.Now()
		for r.K.Stats.VTLBFills-fills0 < uint64(n) {
			r.K.Run(r.Clock().Now() + 100_000)
			if len(r.K.Killed) > 0 {
				return 0, 0
			}
		}
		return int(r.K.Stats.VTLBFills - fills0), time.Since(start)
	}, nil
}

// pioExitBatch runs a guest that reads the PIC mask port in a loop
// under EPT: each read is a port-I/O VM exit handled by the VMM.
func pioExitBatch() (batchFunc, error) {
	img, err := guest.Build(guest.KernelOpts{Workload: "pio_loop:\n\tin al, 0x21\n\tjmp pio_loop\n"})
	if err != nil {
		return nil, err
	}
	r, err := guest.NewRunner(guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT,
		UseVPID: true, SchedTimerHz: -1}, img)
	if err != nil {
		return nil, err
	}
	v := r.VCPU()
	return func(n int) (int, time.Duration) {
		io0 := v.Exits[x86.ExitIO]
		start := time.Now()
		for v.Exits[x86.ExitIO]-io0 < uint64(n) {
			r.K.Run(r.Clock().Now() + 200_000)
			if len(r.K.Killed) > 0 {
				return 0, 0
			}
		}
		return int(v.Exits[x86.ExitIO] - io0), time.Since(start)
	}, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
