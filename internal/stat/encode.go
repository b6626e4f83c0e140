package stat

import (
	"bytes"
	"fmt"
	"strings"

	"nova/internal/trace"
)

// MetricData is the serialized form of one metric.
type MetricData struct {
	Name   string               `json:"name"`
	Kind   string               `json:"kind"`
	Total  uint64               `json:"total"`
	Max    uint64               `json:"max,omitempty"`
	Hist   *trace.HistogramData `json:"hist,omitempty"`
	Epochs []EpochCell          `json:"epochs,omitempty"`
}

// Family splits the metric name into its family and label part:
// `kernel_vmexits{vm="vm0"}` → (`kernel_vmexits`, `{vm="vm0"}`).
func (m *MetricData) Family() (family, labels string) {
	if i := strings.IndexByte(m.Name, '{'); i >= 0 {
		return m.Name[:i], m.Name[i:]
	}
	return m.Name, ""
}

// Data is a decoded (or freshly snapshotted) stats snapshot.
type Data struct {
	EpochLen    uint64       `json:"epoch_len"`
	FinalCycles uint64       `json:"final_cycles"`
	Metrics     []MetricData `json:"metrics"` // sorted by name
}

// MarshalBinary encodes the stat section of a NOVAOBS1 file: the
// snapshot as one JSON section. Struct-based JSON has a fixed field
// order and the metrics are name-sorted, so two snapshots of identical
// runs encode to identical bytes.
func (d *Data) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a stat section written by MarshalBinary.
func (d *Data) UnmarshalBinary(b []byte) error {
	*d = Data{}
	b, err := trace.ReadJSON(b, d)
	if err != nil {
		return fmt.Errorf("stat: %w", err)
	}
	if len(b) != 0 {
		return fmt.Errorf("stat: %d trailing bytes", len(b))
	}
	return nil
}
