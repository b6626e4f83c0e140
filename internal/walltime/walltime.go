// Package walltime is the one sanctioned home for host wall-clock
// reads. The simulation proper (internal/hw, internal/hypervisor,
// internal/vmm, internal/x86, internal/cap) must derive all time from
// hw.Clock's virtual cycles — nova-vet's determinism analyzer rejects
// time.Now there — but host-side tools legitimately time themselves
// (nova-vet reports each analyzer's host seconds). Importing this
// package instead of time documents that the measurement is about the
// host, not the simulated machine, and keeps simulation code
// grep-clean.
package walltime

import "time"

// Stopwatch measures elapsed host time for progress reporting.
type Stopwatch struct{ start time.Time }

// Start begins a wall-clock measurement.
func Start() Stopwatch { return Stopwatch{start: time.Now()} }

// Seconds returns the host seconds elapsed since Start.
func (s Stopwatch) Seconds() float64 { return time.Since(s.start).Seconds() }
