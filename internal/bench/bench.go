// Package bench regenerates every table and figure of the paper's
// evaluation (§8) on the simulated platform. Each experiment runs the
// real stack — microhypervisor, VMM, servers and genuine guest kernels —
// and prints the measured series next to the values the paper reports,
// so the reproduction target (shape: who wins, by roughly what factor,
// where crossovers fall) can be checked at a glance.
//
// Absolute durations differ from the paper by design: the workloads are
// scaled down (the paper compiles Linux for ~470 s on a 2.67 GHz
// machine; we run a synthetic compile of a few hundred million cycles)
// and the substrate is a simulator. Ratios are the result.
package bench

import (
	"fmt"
	"strings"
)

// Scale selects the workload size. The shapes are stable across scales;
// larger scales reduce noise in the small-overhead configurations.
type Scale struct {
	Name string

	// Compile workload (Figure 5 / Table 2).
	Slices      int
	CachePages  int
	CachePasses int
	PrivPages   int
	FillerIter  int

	// Disk workload (Figure 6): requests per block size.
	DiskRequests int

	// Network workload (Figure 7): packets per bandwidth point.
	Packets int
}

// Quick is the CI-friendly scale (seconds per experiment).
func Quick() Scale {
	return Scale{Name: "quick", Slices: 12, CachePages: 384, CachePasses: 3,
		PrivPages: 32, FillerIter: 10000, DiskRequests: 30, Packets: 150}
}

// Full is the paper-shaped scale (a few minutes for the whole suite).
func Full() Scale {
	return Scale{Name: "full", Slices: 40, CachePages: 448, CachePasses: 4,
		PrivPages: 48, FillerIter: 15000, DiskRequests: 200, Packets: 1000}
}

// Series is one measured line of a figure.
type Series struct {
	Label  string
	X      []float64
	Y      []float64
	YLabel string
}

// Table renders simple fixed-width result tables.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Prof summarizes the experiment's guest profile, when its runs
	// were profiled (zero-perturbation: the numbers in Rows are
	// bit-identical either way).
	Prof *ProfSummary `json:"prof,omitempty"`
	// VirtualCycles is the total simulated cycle count consumed by the
	// experiment's runs.
	VirtualCycles uint64 `json:"virtual_cycles,omitempty"`
	// Resources aggregates the runs' deterministic consumption totals
	// (instructions, exits, IPC, DMA, ...), when the experiment ran
	// guest workloads.
	Resources *Resources `json:"resources,omitempty"`
	// Latency holds the per-request-class virtual-time latency tails
	// (exact p50/p99/p999) and critical-path segment totals, when the
	// experiment recorded request spans.
	Latency []LatencyClass `json:"latency,omitempty"`
}

func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }
