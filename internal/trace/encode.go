package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"nova/internal/hw"
	"nova/internal/x86"
)

// eventSize is the fixed on-disk size of one event record:
// time(8) + seq(8) + kind(1) + 4×arg(8).
const eventSize = 8 + 8 + 1 + 4*8

// Meta describes the run that produced a NOVAOBS1 file and is its run
// header, shared by every recorder section: the machine, the
// cost-model constants a renderer needs to decompose measured durations
// into the paper's Figure 8/9 boxes, and the enum name tables so files
// are self-describing.
type Meta struct {
	Model   string `json:"model"`
	FreqMHz int    `json:"freq_mhz"`
	NumCPUs int    `json:"num_cpus"`
	VPID    bool   `json:"vpid"`

	// Cost-model constants, in cycles. VMTransit is the effective
	// world-switch cost of the run (tagged-aware).
	SyscallEntryExit uint64 `json:"syscall_entry_exit"`
	VMTransit        uint64 `json:"vm_transit"`
	VMRead           uint64 `json:"vm_read"`
	TLBRefill        uint64 `json:"tlb_refill"`
	PageWalkLevel    uint64 `json:"page_walk_level"`
	CacheLineAccess  uint64 `json:"cache_line_access"`

	ExitReasons []string `json:"exit_reasons"`
	KindNames   []string `json:"kind_names"`
}

// NamedCount is one (name, count) pair in the metrics section.
type NamedCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// BucketCount is one non-empty histogram bucket with its value range.
type BucketCount struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramData is the serialized form of a Histogram.
type HistogramData struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns the nearest-rank q-quantile derivable from the log2
// buckets: the upper bound of the bucket holding the ceil(q*Count)-th
// smallest observation, clamped to the observed [Min, Max]. The rank is
// exact (bucket counts are exact); only the value within the bucket is
// an upper bound, so p50/p99/p999 read from here never understate the
// tail. Returns 0 for an empty histogram.
func (d *HistogramData) Quantile(q float64) uint64 {
	if d == nil || d.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(d.Count))
	if float64(rank) < q*float64(d.Count) {
		rank++ // ceil without importing math
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range d.Buckets {
		cum += b.Count
		if cum >= rank {
			v := b.Hi
			if v > d.Max {
				v = d.Max
			}
			if v < d.Min {
				v = d.Min
			}
			return v
		}
	}
	return d.Max
}

// Data converts a histogram to its serialized form (non-empty buckets
// only, in value order).
func (h *Histogram) Data() HistogramData {
	d := HistogramData{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		d.Buckets = append(d.Buckets, BucketCount{Lo: lo, Hi: hi, Count: n})
	}
	return d
}

// RingStatus reports one per-CPU event ring's occupancy, so metrics
// consumers can tell whether the recorded window covers the whole run
// or only its tail (a full ring overwrites its oldest events).
type RingStatus struct {
	CPU         int    `json:"cpu"`
	Capacity    int    `json:"capacity"`
	Live        int    `json:"live"`
	Overwritten uint64 `json:"overwritten"`
}

// Metrics is the counters-and-histograms section of a trace.
type Metrics struct {
	Exits           []NamedCount  `json:"exits,omitempty"` // reason order, non-zero only
	VTLBHits        uint64        `json:"vtlb_hits"`
	VTLBMisses      uint64        `json:"vtlb_misses"`
	Counters        []NamedCount  `json:"counters,omitempty"` // name order
	Rings           []RingStatus  `json:"rings,omitempty"`    // CPU order
	IPCLatency      HistogramData `json:"ipc_latency"`
	DispatchLatency HistogramData `json:"dispatch_latency"`
	ExitLatency     HistogramData `json:"exit_latency"`
	VTLBFill        HistogramData `json:"vtlb_fill"`
}

// Truncated reports whether any per-CPU ring overwrote events: the
// window the events cover is then shorter than the run, while the
// counters and histograms still cover everything.
func (m *Metrics) Truncated() uint64 {
	var n uint64
	for _, r := range m.Rings {
		n += r.Overwritten
	}
	return n
}

// MetricsData snapshots the tracer's counters and histograms.
func (t *Tracer) MetricsData() Metrics {
	if t == nil {
		return Metrics{}
	}
	m := Metrics{
		VTLBHits:        t.VTLBHits,
		VTLBMisses:      t.VTLBMisses,
		IPCLatency:      t.IPCLatency.Data(),
		DispatchLatency: t.DispatchLatency.Data(),
		ExitLatency:     t.ExitLatency.Data(),
		VTLBFill:        t.VTLBFill.Data(),
	}
	for r, n := range t.ExitCounts {
		if n == 0 {
			continue
		}
		m.Exits = append(m.Exits, NamedCount{Name: x86.ExitReason(r).String(), Count: n})
	}
	t.Counters.Each(func(name string, v uint64) {
		m.Counters = append(m.Counters, NamedCount{Name: name, Count: v})
	})
	for cpu, r := range t.rings {
		m.Rings = append(m.Rings, RingStatus{
			CPU: cpu, Capacity: r.Cap(), Live: r.Len(), Overwritten: r.Overwritten(),
		})
	}
	return m
}

// RingData is the decoded form of a set of per-CPU rings: the tracer's
// event rings and the span recorder's record rings share it and its
// codec.
type RingData struct {
	Capacity    int
	PerCPU      [][]Event // index = CPU, ordered by sequence
	Overwritten []uint64  // per CPU
}

// SnapshotRings captures the live rings in decoded form.
func SnapshotRings(rings []*Ring) RingData {
	var d RingData
	for _, r := range rings {
		d.Capacity = r.Cap()
		d.PerCPU = append(d.PerCPU, r.Events())
		d.Overwritten = append(d.Overwritten, r.Overwritten())
	}
	return d
}

// Events returns all events merged into the (time, CPU, seq) order.
func (d *RingData) Events() []Event { return MergeEvents(d.PerCPU) }

// Append writes the rings to buf: capacity and CPU count (u32 each),
// then per CPU a record count (u32), the overwrite count (u64) and
// fixed-size little-endian event records.
func (d *RingData) Append(buf *bytes.Buffer) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.Capacity))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(d.PerCPU)))
	buf.Write(hdr[:8])
	for cpu, events := range d.PerCPU {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(events)))
		binary.LittleEndian.PutUint64(hdr[4:], d.Overwritten[cpu])
		buf.Write(hdr[:])
		var rec [eventSize]byte
		for _, e := range events {
			binary.LittleEndian.PutUint64(rec[0:], uint64(e.Time))
			binary.LittleEndian.PutUint64(rec[8:], e.Seq)
			rec[16] = uint8(e.Kind)
			binary.LittleEndian.PutUint64(rec[17:], e.A0)
			binary.LittleEndian.PutUint64(rec[25:], e.A1)
			binary.LittleEndian.PutUint64(rec[33:], e.A2)
			binary.LittleEndian.PutUint64(rec[41:], e.A3)
			buf.Write(rec[:])
		}
	}
}

// ReadRings splits rings written by RingData.Append off the front of b.
func ReadRings(b []byte) (d RingData, rest []byte, err error) {
	if len(b) < 8 {
		return d, nil, fmt.Errorf("truncated ring header")
	}
	d.Capacity = int(binary.LittleEndian.Uint32(b))
	cpus := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if cpus > 1<<8 {
		return d, nil, fmt.Errorf("implausible CPU count %d", cpus)
	}
	for cpu := 0; cpu < cpus; cpu++ {
		if len(b) < 12 {
			return d, nil, fmt.Errorf("truncated ring header (cpu %d)", cpu)
		}
		count := int(binary.LittleEndian.Uint32(b))
		over := binary.LittleEndian.Uint64(b[4:])
		b = b[12:]
		if count > len(b)/eventSize {
			return d, nil, fmt.Errorf("truncated ring (cpu %d)", cpu)
		}
		events := make([]Event, count)
		for i := range events {
			rec := b[i*eventSize:]
			events[i] = Event{
				Time: hw.Cycles(binary.LittleEndian.Uint64(rec[0:])),
				Seq:  binary.LittleEndian.Uint64(rec[8:]),
				CPU:  uint8(cpu),
				Kind: Kind(rec[16]),
				A0:   binary.LittleEndian.Uint64(rec[17:]),
				A1:   binary.LittleEndian.Uint64(rec[25:]),
				A2:   binary.LittleEndian.Uint64(rec[33:]),
				A3:   binary.LittleEndian.Uint64(rec[41:]),
			}
		}
		b = b[count*eventSize:]
		d.PerCPU = append(d.PerCPU, events)
		d.Overwritten = append(d.Overwritten, over)
	}
	return d, b, nil
}

// TraceData is the decoded (or snapshotted) trace: the event rings and
// the counters-and-histograms section.
type TraceData struct {
	RingData
	Metrics Metrics
}

// Data snapshots the live tracer into the decoded form.
func (t *Tracer) Data() *TraceData {
	return &TraceData{RingData: SnapshotRings(t.Rings()), Metrics: t.MetricsData()}
}

// MarshalBinary encodes the trace section of a NOVAOBS1 file: the
// per-CPU event rings, then the metrics JSON as one length-prefixed
// section. Fixed-size records and struct-based JSON (fixed field order)
// make two runs from identical inputs encode to identical bytes.
func (d *TraceData) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	d.Append(&buf)
	if err := WriteJSON(&buf, d.Metrics); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a trace section written by MarshalBinary.
func (d *TraceData) UnmarshalBinary(b []byte) error {
	rings, b, err := ReadRings(b)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	d.RingData = rings
	if b, err = ReadJSON(b, &d.Metrics); err != nil {
		return fmt.Errorf("trace: metrics: %w", err)
	}
	if len(b) != 0 {
		return fmt.Errorf("trace: %d trailing bytes", len(b))
	}
	return nil
}

// WriteSection appends one length-prefixed section (u32 LE length, then
// the body) to buf: the framing of every NOVAOBS1 section.
func WriteSection(buf *bytes.Buffer, b []byte) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b)))
	buf.Write(tmp[:])
	buf.Write(b)
}

// ReadSection splits one length-prefixed section (as written by
// WriteSection) off the front of b.
func ReadSection(b []byte) (section, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("truncated section length")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("truncated section body")
	}
	return b[:n], b[n:], nil
}

// WriteJSON appends v's JSON encoding as one section.
func WriteJSON(buf *bytes.Buffer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	WriteSection(buf, b)
	return nil
}

// ReadJSON splits one JSON section off the front of b into v. The body
// must be exactly what WriteJSON writes for the decoded value, so every
// file that decodes re-encodes to the same bytes.
func ReadJSON(b []byte, v any) (rest []byte, err error) {
	body, rest, err := ReadSection(b)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	if canon, err := json.Marshal(v); err != nil || !bytes.Equal(canon, body) {
		return nil, fmt.Errorf("non-canonical JSON")
	}
	return rest, nil
}
