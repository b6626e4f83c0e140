package guest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"nova/internal/hw"
	"nova/internal/stat"
	"nova/internal/x86"
)

// abWorkload is one workload of the invisibility matrix.
type abWorkload struct {
	name   string
	cfg    RunnerConfig
	img    []byte
	params []uint32
}

// abWorkloads covers every execution mode and recorder hook: the native
// baseline, EPT (exit attribution), vTLB (fills and flushes), and a
// disk-backed boot (disk server, IPC, injections, DMA).
func abWorkloads() []abWorkload {
	compute := MustBuild(ComputeKernelWithSwitches(true, false, 8))
	return []abWorkload{
		{"native-compute", RunnerConfig{Model: hw.BLM, Mode: ModeNative}, compute, []uint32{3, 64 << 10}},
		{"ept-compute", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true}, compute, []uint32{3, 64 << 10}},
		{"vtlb-compute", RunnerConfig{Model: hw.BLM, Mode: ModeVirtVTLB}, compute, []uint32{3, 64 << 10}},
		{"ept-disk-boot", RunnerConfig{Model: hw.BLM, Mode: ModeVirtEPT, UseVPID: true, WithDiskServer: true},
			MustBuild(DiskChecksumKernel()), []uint32{8, 4, 2000}},
	}
}

// abResult is everything a host-side switch must leave alone, plus the
// profile and the fused-instruction count of the run.
type abResult struct {
	cycles    hw.Cycles
	traceHash uint64 // 0 when no tracer is attached
	ramHash   uint64
	state     string
	profile   []byte // encoded prof section, when a profiler is attached
	fused     uint64
}

// abRun boots one workload and collects its abResult.
func abRun(t *testing.T, cfg RunnerConfig, w abWorkload) abResult {
	t.Helper()
	r, err := NewRunner(cfg, w.img)
	if err != nil {
		t.Fatal(err)
	}
	r.Chunk = 100_000
	writeParams(r, w.params...)
	var res abResult
	if res.cycles, err = r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	res.traceHash = traceHash(t, r)
	h := fnv.New64a()
	h.Write(r.Plat.Mem.RAM())
	res.ramHash = h.Sum64()
	var ip *x86.Interp
	if v := r.VCPU(); v != nil {
		res.state, ip = v.State.String(), v.Interp
	} else {
		res.state, ip = r.BM.State.String(), r.BM.Interp
	}
	if ip.Cache != nil {
		res.fused = ip.Cache.SB.Fused
	}
	if r.Prof != nil {
		if res.profile, err = decodeObs(t, r).Prof.MarshalBinary(); err != nil {
			t.Fatalf("encode profile: %v", err)
		}
	}
	return res
}

// TestObservationInvisibility is the A/B matrix for everything host-side:
// the decoded-instruction cache, superblocks, and each recorder (tracer,
// profiler, stat registry, span recorder) alone and all together,
// across execution modes and with superblocks on and off. Each row flips one switch and requires
// bit-identical simulated outcomes: cycle totals, encoded-trace hash,
// final physical memory and final vCPU state. Any divergence means the
// switched layer leaked into the simulation (a charge, an event, or
// guest-visible state).
//
// The superblocks-profiled row also pins deadline sampling: a profiled
// run still executes fused blocks, and its profile is byte-identical to
// the single-stepped run's.
func TestObservationInvisibility(t *testing.T) {
	runs := map[string]abResult{}
	run := func(t *testing.T, cfg RunnerConfig, w abWorkload) abResult {
		t.Helper()
		key := fmt.Sprintf("%s %+v", w.name, cfg)
		res, ok := runs[key]
		if !ok {
			res = abRun(t, cfg, w)
			runs[key] = res
		}
		return res
	}
	noSB := func(c *RunnerConfig) { c.DisableSuperblocks = true }
	profiled := func(c *RunnerConfig) { c.ProfilePeriod = 10_000 }
	rows := []struct {
		name       string
		on, off    func(*RunnerConfig) // the switch; nil leaves the base config
		bothSB     bool                // run the row with superblocks on and off
		virtOnly   bool                // the switch exists only under a hypervisor
		noTrace    bool                // the off run has no tracer to hash
		sameProf   bool                // profiles must match byte for byte
		fusedOnRun bool                // the on run must execute fused blocks
	}{
		{name: "decode-cache", off: func(c *RunnerConfig) { c.DisableDecodeCache = true }},
		{name: "superblocks", off: noSB},
		{name: "superblocks-profiled", on: profiled, off: func(c *RunnerConfig) { profiled(c); noSB(c) },
			sameProf: true, fusedOnRun: true},
		{name: "tracer", off: func(c *RunnerConfig) { c.TraceCapacity = 0 }, bothSB: true, virtOnly: true, noTrace: true},
		{name: "profiler", on: profiled, bothSB: true},
		{name: "stats", on: func(c *RunnerConfig) { c.StatEpoch = stat.DefaultEpochLen }, bothSB: true},
		{name: "spans", on: func(c *RunnerConfig) { c.SpanCapacity = 4096 }, bothSB: true},
		{name: "all-recorders", on: allRecorders, bothSB: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, w := range abWorkloads() {
				if row.virtOnly && w.cfg.Mode == ModeNative {
					continue
				}
				sbModes := []string{""}
				if row.bothSB {
					sbModes = []string{"sb-on", "sb-off"}
				}
				for _, sb := range sbModes {
					name := w.name
					if sb != "" {
						name += "/" + sb
					}
					t.Run(name, func(t *testing.T) {
						on, off := w.cfg, w.cfg
						if w.cfg.Mode != ModeNative {
							// Virtualized runs are traced, so the trace
							// hash joins the comparison.
							on.TraceCapacity, off.TraceCapacity = 4096, 4096
						}
						if sb == "sb-off" {
							noSB(&on)
							noSB(&off)
						}
						if row.on != nil {
							row.on(&on)
						}
						if row.off != nil {
							row.off(&off)
						}
						a, b := run(t, on, w), run(t, off, w)
						if a.cycles != b.cycles {
							t.Errorf("cycle totals differ: on %d vs off %d (Δ=%d)", a.cycles, b.cycles, int64(a.cycles)-int64(b.cycles))
						}
						if !row.noTrace && a.traceHash != b.traceHash {
							t.Errorf("trace hashes differ: on %#x vs off %#x", a.traceHash, b.traceHash)
						}
						if a.ramHash != b.ramHash {
							t.Errorf("final physical memory differs: on %#x vs off %#x", a.ramHash, b.ramHash)
						}
						if a.state != b.state {
							t.Errorf("final vCPU state differs:\n on  %s\n off %s", a.state, b.state)
						}
						if row.sameProf && !bytes.Equal(a.profile, b.profile) {
							t.Errorf("profiles differ: %d vs %d bytes", len(a.profile), len(b.profile))
						}
						if row.fusedOnRun && a.fused == 0 {
							t.Error("profiled run fused no instructions")
						}
						t.Logf("%d cycles, trace %#x, ram %#x, %d fused", a.cycles, a.traceHash, a.ramHash, a.fused)
					})
				}
			}
		})
	}
}
