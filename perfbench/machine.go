package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/x86"
)

const (
	// runChunk is the virtual-time slice between progress polls, the
	// same granularity guest.Runner.RunUntilDone uses.
	runChunk hw.Cycles = 2_000_000
	// stallWindow is how long (virtual cycles, ~0.1 s at 2.67 GHz) the
	// progress counter may stand still before the run counts as hung:
	// about a hundred times the longest single operation (a 64 KiB disk
	// request or one compile timeslice, a few million cycles each).
	stallWindow hw.Cycles = 1 << 28
	// runBudget bounds a repetition's virtual time whatever happens.
	runBudget hw.Cycles = 1 << 40
)

// fingerprint is the simulated outcome of a repetition. Host-side fast
// paths and observers must not change it, so it must repeat exactly
// across repetitions of one job and between timed and traced runs.
type fingerprint struct {
	Cycles    hw.Cycles // virtual time when the run stopped
	DoneTSC   uint64    // guest RDTSC at completion (0 if it never finished)
	InstRet   uint64
	Exits     [x86.NumExitReasons]uint64
	VTLBFills uint64
	Completed int
	Output    uint32 // demand faults (compile) or folded sum (disk-rw)
}

// rep is the measurement of one repetition: set-up, then the run phase.
type rep struct {
	build, newRunner, setup time.Duration

	// The run window ends at the poll that saw the last completed
	// operation, so idling after the work (or in a hang) adds nothing.
	run       time.Duration
	cycles    hw.Cycles
	insts     uint64
	completed int

	allocBytes uint64  // heap bytes allocated by set-up plus run
	gcSeconds  float64 // GC CPU time during the repetition
	stalled    bool
	err        error // output check or machine failure
	fp         fingerprint
	counts     map[string]float64
}

// readGCSeconds returns the CPU time the garbage collector has used.
func readGCSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runRep builds a fresh machine for j and runs it until the guest
// finishes, stalls or the budget runs out.
func runRep(j job) rep {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, readGCSeconds()

	var rp rep
	t0 := time.Now()
	img, err := guest.Build(j.kernel)
	if err != nil {
		return rep{err: fmt.Errorf("build: %w", err)}
	}
	t1 := time.Now()
	r, err := guest.NewRunner(j.cfg, img)
	if err != nil {
		return rep{err: fmt.Errorf("new runner: %w", err)}
	}
	t2 := time.Now()
	for _, w := range j.writes {
		r.WriteGuest(w.gpa, w.data)
	}
	t3 := time.Now()
	rp.build, rp.newRunner, rp.setup = t1.Sub(t0), t2.Sub(t1), t3.Sub(t0)

	rp.err = drive(r, j, &rp)

	runtime.ReadMemStats(&ms)
	rp.allocBytes = ms.TotalAlloc - alloc0
	rp.gcSeconds = readGCSeconds() - gc0
	rp.fp.InstRet = r.InstRet()
	rp.fp.Output = r.ReadGuest32(j.output)
	rp.fp.Exits = r.VCPU().Exits
	rp.fp.VTLBFills = r.K.Stats.VTLBFills
	rp.counts = layerCounts(r)
	if rp.err == nil {
		rp.err = j.check(r, rp.completed)
	}
	return rp
}

// drive runs r in runChunk slices, polling the guest's progress counter,
// until the guest stores guest.MarkerDone, the counter stands still for
// stallWindow, the machine goes idle for good (nothing runnable and no
// pending event), or runBudget is spent.
func drive(r *guest.Runner, j job, rp *rep) error {
	clk := r.Clock()
	c0, i0 := clk.Now(), r.InstRet()
	lastMove := c0
	start := time.Now()
	for clk.Now() < runBudget {
		idle := r.K.Run(clk.Now()+runChunk) == "idle"
		if len(r.K.Killed) > 0 {
			return fmt.Errorf("VM killed: %v", r.K.Killed)
		}
		now := clk.Now()
		if p := int(r.ReadGuest32(guest.ProgressAddr)); p != rp.completed {
			rp.completed = p
			rp.run, rp.cycles, rp.insts = time.Since(start), now-c0, r.InstRet()-i0
			lastMove = now
		}
		if r.Marker() == guest.MarkerDone {
			rp.fp.DoneTSC = uint64(r.ReadGuest32(guest.DoneTSCAddr)) | uint64(r.ReadGuest32(guest.DoneTSCAddr+4))<<32
			break
		}
		if idle || now-lastMove >= stallWindow {
			rp.stalled = true
			break
		}
	}
	rp.fp.Cycles = clk.Now()
	rp.fp.Completed = rp.completed
	if rp.completed > j.ops {
		return fmt.Errorf("guest reports %d operations, the job has %d", rp.completed, j.ops)
	}
	return nil
}
