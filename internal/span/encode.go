package span

import (
	"bytes"
	"fmt"

	"nova/internal/trace"
)

// Summary holds the whole-run counters that survive ring wraps.
type Summary struct {
	Opened uint64 `json:"opened"`
	Closed uint64 `json:"closed"`
}

// Data is the decoded (or snapshotted) span section: the per-CPU
// record rings and the whole-run summary.
type Data struct {
	trace.RingData
	Summary Summary
}

// Data snapshots the live recorder into the decoded form.
func (r *Recorder) Data() *Data {
	if r == nil {
		return &Data{}
	}
	return &Data{RingData: trace.SnapshotRings(r.rings), Summary: Summary{Opened: r.Opened, Closed: r.Closed}}
}

// MarshalBinary encodes the span section of a NOVAOBS1 file: the
// per-CPU rings in the trace ring codec, then the summary JSON as one
// length-prefixed section.
func (d *Data) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	d.Append(&buf)
	if err := trace.WriteJSON(&buf, d.Summary); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a span section written by MarshalBinary.
func (d *Data) UnmarshalBinary(b []byte) error {
	rings, b, err := trace.ReadRings(b)
	if err != nil {
		return fmt.Errorf("span: %w", err)
	}
	d.RingData = rings
	if b, err = trace.ReadJSON(b, &d.Summary); err != nil {
		return fmt.Errorf("span: summary: %w", err)
	}
	if len(b) != 0 {
		return fmt.Errorf("span: %d trailing bytes", len(b))
	}
	return nil
}
