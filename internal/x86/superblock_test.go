package x86

import (
	"strings"
	"testing"
)

// missingPager charges a TLB-miss cost to its virtual clock on the
// first fetch from each page, like the hypervisor bindings' fetch
// translation does; TSC reads that clock.
type missingPager struct {
	*pagerEnv
	clock    uint64
	missCost uint64
	mapped   map[uint32]bool
}

func (e *missingPager) ExecPage(st *CPUState, va uint32) ([]byte, uint64, uint64, error) {
	if !e.mapped[va>>12] {
		e.mapped[va>>12] = true
		e.clock += e.missCost
	}
	return e.pagerEnv.ExecPage(st, va)
}

// TestStepBlockFetchCharge runs a fusible block whose fetch misses up
// to a limit that the full block would cross. Like the binding layer's
// run loop, each step or fused run is capped at the instructions that
// fit before the limit (one cycle each) and charges one cycle per
// retired instruction. The fused run must stop at the same instruction
// and time as single-stepping, where the event or sample point at the
// limit would be taken.
func TestStepBlockFetchCharge(t *testing.T) {
	const missCost, limit = 5, 8
	run := func(fused bool) (eip uint32, retired, clock uint64) {
		ip, env := runCached(t, strings.Repeat("inc eax\n", 20)+"hlt\n", 0x1000)
		pager := &missingPager{pagerEnv: env, missCost: missCost, mapped: map[uint32]bool{}}
		ip.Env, ip.pager = pager, pager
		ip.TSC = func() uint64 { return pager.clock }
		for pager.clock < limit {
			before := ip.InstRet
			var err error
			if fused {
				err = ip.StepBlock(limit - pager.clock)
			} else {
				err = ip.Step()
			}
			if err != nil {
				t.Fatal(err)
			}
			pager.clock += ip.InstRet - before
		}
		return ip.St.EIP, ip.InstRet, pager.clock
	}
	eip, retired, clock := run(false)
	feip, fretired, fclock := run(true)
	if feip != eip || fretired != retired || fclock != clock {
		t.Errorf("fused run stopped at eip %#x after %d instructions at cycle %d; single-stepping at eip %#x after %d at cycle %d",
			feip, fretired, fclock, eip, retired, clock)
	}
	if retired != limit-missCost {
		t.Errorf("single-stepping retired %d instructions, want %d", retired, limit-missCost)
	}
}
