package bench

import (
	"fmt"
	"strings"
	"testing"
)

// sampleTable is a fig5-like table with every Table field populated.
func sampleTable() *Table {
	return &Table{
		Title:         "Figure 5",
		Columns:       []string{"config", "measured %"},
		Rows:          [][]string{{"Native", "100.0"}, {"NOVA", "99.2"}},
		Notes:         []string{"scaled-down compile"},
		Prof:          &ProfSummary{Samples: 40, TopAddr: "0x1000", TopCycles: 900},
		VirtualCycles: 12345,
		Resources:     &Resources{Runs: 2, Instructions: 5000, VMExits: 17},
		Latency: []LatencyClass{{Class: "disk", Count: 3, Min: 10, Mean: 20, P50: 20, P99: 30, P999: 30, Max: 30,
			Segs: []SegCycles{{Seg: "kernel", Cycles: 40}}}},
	}
}

// encode builds a report the way nova-bench does, then serializes it so
// the tests exercise the real artifact path.
func encode(t *testing.T, tables map[string]*Table) []byte {
	t.Helper()
	r := &Report{Scale: "quick"}
	for _, name := range []string{"fig5", "fig8"} {
		if tb, ok := tables[name]; ok {
			r.Add(name, tb)
		}
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleReport(t *testing.T) []byte {
	return encode(t, map[string]*Table{"fig5": sampleTable(), "fig8": {Title: "Figure 8", VirtualCycles: 777}})
}

func TestReportProvenance(t *testing.T) {
	b := string(sampleReport(t))
	for _, want := range []string{
		fmt.Sprintf(`"schema_version": %d`, ReportSchemaVersion),
		`"scale": "quick"`,
		`"total_virtual_cycles": 13122`, // 12345 + 777
	} {
		if !strings.Contains(b, want) {
			t.Errorf("report JSON missing %s:\n%s", want, b)
		}
	}
}

func TestCompareIdentical(t *testing.T) {
	b := sampleReport(t)
	drift, err := Compare(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Errorf("identical reports drifted: %v", drift)
	}
}

func TestCompareDetectsDeterministicDrift(t *testing.T) {
	base := sampleReport(t)
	cur := strings.Replace(string(base), `"99.2"`, `"98.7"`, 1)
	cur = strings.Replace(cur, `"virtual_cycles": 12345`, `"virtual_cycles": 12999`, 1)
	cur = strings.Replace(cur, `"total_virtual_cycles": 13122`, `"total_virtual_cycles": 13776`, 1)
	drift, err := Compare(base, []byte(cur))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(drift, "\n")
	for _, want := range []string{
		"fig5.rows[1][1]: 99.2 -> 98.7",
		"fig5.virtual_cycles: 12345 -> 12999",
		"total virtual cycles: 13122 -> 13776",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("drift missing %q:\n%s", want, joined)
		}
	}
}

// TestCompareEveryTableField changes each Table field once and requires
// the generic walk to report it as drift under the experiment's name.
func TestCompareEveryTableField(t *testing.T) {
	base := sampleReport(t)
	for _, tc := range []struct {
		path   string
		mutate func(*Table)
	}{
		{"fig5.title", func(tb *Table) { tb.Title = "Figure 5 (redone)" }},
		{"fig5.columns", func(tb *Table) { tb.Columns = append(tb.Columns, "extra") }},
		{"fig5.rows[0][1]", func(tb *Table) { tb.Rows[0][1] = "99.9" }},
		{"fig5.notes[0]", func(tb *Table) { tb.Notes[0] = "full compile" }},
		{"fig5.prof.top_addr", func(tb *Table) { tb.Prof.TopAddr = "0x2000" }},
		// hypercalls is zero, so omitted, in the baseline: a key only
		// the current report has must still be walked.
		{"fig5.resources.hypercalls", func(tb *Table) { tb.Resources.Hypercalls = 3 }},
		{"fig5.latency[0].segs[0].cycles", func(tb *Table) { tb.Latency[0].Segs[0].Cycles++ }},
		{"fig5.virtual_cycles", func(tb *Table) { tb.VirtualCycles++ }},
	} {
		tb := sampleTable()
		tc.mutate(tb)
		cur := encode(t, map[string]*Table{"fig5": tb, "fig8": {Title: "Figure 8", VirtualCycles: 777}})
		drift, err := Compare(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range drift {
			found = found || strings.HasPrefix(d, tc.path+": ")
		}
		if !found {
			t.Errorf("%s changed, drift = %q", tc.path, drift)
		}
	}
}

func TestCompareExperimentSetDrift(t *testing.T) {
	base := sampleReport(t)
	cur := encode(t, map[string]*Table{"fig5": sampleTable()})
	drift, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(drift, "\n"), `experiment "fig8": present in baseline, missing from current`) {
		t.Fatalf("missing experiment not flagged: %q", drift)
	}
}

func TestCompareScaleMismatch(t *testing.T) {
	base := sampleReport(t)
	cur := strings.Replace(string(base), `"scale": "quick"`, `"scale": "full"`, 1)
	if _, err := Compare(base, []byte(cur)); err == nil {
		t.Fatal("scale mismatch not rejected")
	}
	cur = strings.Replace(string(base),
		fmt.Sprintf(`"schema_version": %d`, ReportSchemaVersion), `"schema_version": 1`, 1)
	if _, err := Compare(base, []byte(cur)); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}
