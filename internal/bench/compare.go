package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// Compare diffs two serialized bench reports (baseline first) and
// returns one line per drift. Every report field is a simulated result
// that must be bit-identical across hosts, so any drift is a regression
// or an intentional change that needs a baseline refresh. It refuses
// mismatched schema versions or scales outright, since row layouts and
// workload sizes are only comparable within one schema and one scale.
func Compare(baseline, current []byte) ([]string, error) {
	type report struct {
		SchemaVersion      int    `json:"schema_version"`
		Scale              string `json:"scale"`
		TotalVirtualCycles uint64 `json:"total_virtual_cycles"`
		Experiments        []struct {
			Name  string `json:"name"`
			Table any    `json:"table"`
		} `json:"experiments"`
	}
	var old, new report
	if err := decodeNumbers(baseline, &old); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := decodeNumbers(current, &new); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if old.SchemaVersion != new.SchemaVersion {
		return nil, fmt.Errorf("schema version mismatch: baseline v%d vs current v%d (refresh the baseline)",
			old.SchemaVersion, new.SchemaVersion)
	}
	if old.Scale != new.Scale {
		return nil, fmt.Errorf("scale mismatch: baseline %q vs current %q", old.Scale, new.Scale)
	}

	var drift []string
	add := func(format string, args ...any) { drift = append(drift, fmt.Sprintf(format, args...)) }
	if old.TotalVirtualCycles != new.TotalVirtualCycles {
		add("total virtual cycles: %d -> %d", old.TotalVirtualCycles, new.TotalVirtualCycles)
	}
	unmatched := map[string]any{}
	for _, e := range new.Experiments {
		unmatched[e.Name] = e.Table
	}
	for _, oe := range old.Experiments {
		nt, ok := unmatched[oe.Name]
		if !ok {
			add("experiment %q: present in baseline, missing from current", oe.Name)
			continue
		}
		delete(unmatched, oe.Name)
		diffJSON(oe.Name, oe.Table, nt, add)
	}
	for _, ne := range new.Experiments {
		if _, ok := unmatched[ne.Name]; ok {
			add("experiment %q: present in current, missing from baseline", ne.Name)
		}
	}
	return drift, nil
}

// decodeNumbers unmarshals JSON keeping numbers as json.Number, so a
// drifted cycle count prints as the integer it is.
func decodeNumbers(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	return dec.Decode(v)
}

// diffJSON walks two decoded JSON values in step and reports each
// differing leaf by its path (fig5.rows[1][2], fig6.resources.dma_bytes).
// Objects recurse key by key and equal-length arrays element by
// element; anything else that differs is reported whole.
func diffJSON(path string, a, b any, add func(string, ...any)) {
	switch av := a.(type) {
	case map[string]any:
		if bv, ok := b.(map[string]any); ok {
			var keys []string
			for k := range av {
				keys = append(keys, k)
			}
			for k := range bv {
				if _, ok := av[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				diffJSON(path+"."+k, av[k], bv[k], add)
			}
			return
		}
	case []any:
		if bv, ok := b.([]any); ok && len(av) == len(bv) {
			for i := range av {
				diffJSON(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], add)
			}
			return
		}
	}
	if !reflect.DeepEqual(a, b) {
		add("%s: %v -> %v", path, a, b)
	}
}
