package bench

import "encoding/json"

// ReportSchemaVersion identifies the report layout. Bump it when a
// field changes meaning so `nova-bench -compare` refuses to diff
// incompatible artifacts instead of reporting nonsense drift.
const ReportSchemaVersion = 4 // v4: no host-time fields; every field is simulated

// Report is the machine-readable form of a bench run, written by
// `nova-bench -out BENCH_<scale>.json`. It carries the same tables the
// terminal output shows, so CI can archive one artifact per run and
// diff results across revisions without screen-scraping.
//
// Every field is a property of the simulated run and bit-stable across
// hosts. Host speed is perfbench's business, not the report's.
type Report struct {
	SchemaVersion      int          `json:"schema_version"`
	Scale              string       `json:"scale"`
	TotalVirtualCycles uint64       `json:"total_virtual_cycles"`
	Experiments        []Experiment `json:"experiments"`
}

// Experiment is one named result table.
type Experiment struct {
	Name  string `json:"name"`
	Table *Table `json:"table"`
}

// ProfSummary condenses an experiment's guest profile into the report:
// how many virtual-time samples the runs recorded, and which guest
// address was hottest (by sampled plus attributed cycles). It rides in
// the JSON so the benchmark trajectory carries attribution — "vtlb got
// slower AND the heat moved to the page-fault path" — not just totals.
type ProfSummary struct {
	Samples   uint64 `json:"samples"`
	TopAddr   string `json:"top_addr"`
	TopCycles uint64 `json:"top_cycles"`
}

// Add appends one experiment's table to the report.
func (r *Report) Add(name string, t *Table) {
	r.Experiments = append(r.Experiments, Experiment{Name: name, Table: t})
}

// JSON serializes the report, indented, trailing newline included.
// An empty report encodes as "experiments": [] rather than null.
// Provenance is stamped here so every written artifact carries it.
func (r *Report) JSON() ([]byte, error) {
	if r.Experiments == nil {
		r.Experiments = []Experiment{}
	}
	r.SchemaVersion = ReportSchemaVersion
	r.TotalVirtualCycles = 0
	for _, e := range r.Experiments {
		if e.Table != nil {
			r.TotalVirtualCycles += e.Table.VirtualCycles
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
