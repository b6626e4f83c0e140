package bench

import (
	"fmt"

	"nova/internal/prof"
)

// benchProfPeriod is the sampling grid the profiled experiments use.
// Profiling is zero-perturbation (enforced by TestObservationInvisibility),
// so enabling it here cannot move any number in the tables.
const benchProfPeriod = 10_000

// benchSpanCapacity sizes the per-CPU span rings of the experiments
// that record request spans (enough to hold every request of a quick
// or full run without wrapping). Span recording is zero-perturbation
// (enforced by TestObservationInvisibility), so attaching it cannot move any
// number in the tables.
const benchSpanCapacity = 1 << 16

// mergeProf folds one profiled run into an experiment's summary:
// sample counts accumulate, and the hottest address across all of the
// experiment's runs wins the top slot.
func mergeProf(sum **ProfSummary, d *prof.Data) {
	if d == nil {
		return
	}
	s := *sum
	if s == nil {
		s = &ProfSummary{}
		*sum = s
	}
	s.Samples += d.TotalSamples()
	if hot := d.Hot(1); len(hot) > 0 && hot[0].TotalCycles() > s.TopCycles {
		s.TopCycles = hot[0].TotalCycles()
		s.TopAddr = fmt.Sprintf("0x%08x", hot[0].Addr)
	}
}
