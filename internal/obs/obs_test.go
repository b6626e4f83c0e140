package obs_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/obs"
	"nova/internal/trace"
)

// runFile encodes the observations of a short disk-reading EPT run
// with all four recorders attached, kept small (short rings, a coarse
// sampling grid) so it also serves as a fuzz seed.
func runFile(t testing.TB) []byte {
	t.Helper()
	cfg := guest.RunnerConfig{
		Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, WithDiskServer: true,
		TraceCapacity: 16, ProfilePeriod: 1_000_000, StatEpoch: 10_000_000, SpanCapacity: 16,
	}
	r, err := guest.NewRunner(cfg, guest.MustBuild(guest.DiskChecksumKernel()))
	if err != nil {
		t.Fatal(err)
	}
	params := make([]byte, 12)
	for i, p := range []uint32{2, 4, 2000} {
		binary.LittleEndian.PutUint32(params[i*4:], p)
	}
	r.WriteGuest(guest.ParamBase, params)
	if _, err := r.RunUntilDone(10_000_000_000); err != nil {
		t.Fatal(err)
	}
	b, err := r.EncodeObs()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRoundTrip decodes a real run's file and checks the header, that
// every recorder has its section, and that the file re-encodes to the
// same bytes.
func TestRoundTrip(t *testing.T) {
	b := runFile(t)
	f, err := obs.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Run.Model == "" || f.Run.FreqMHz == 0 || f.Run.NumCPUs == 0 || !f.Run.VPID || len(f.Run.ExitReasons) == 0 {
		t.Errorf("run header %+v", f.Run)
	}
	if got := f.Sections(); !slices.Equal(got, []string{"trace", "prof", "stat", "span"}) {
		t.Fatalf("sections %v", got)
	}
	if f.Trace.Capacity != 16 || f.Span.Summary.Opened == 0 || len(f.Stat.Metrics) == 0 || f.Prof.Meta.Period != 1_000_000 {
		t.Errorf("section contents: trace capacity %d, %d spans, %d metrics, period %d",
			f.Trace.Capacity, f.Span.Summary.Opened, len(f.Stat.Metrics), f.Prof.Meta.Period)
	}
	if b2, err := f.Encode(); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-encode differs (%v)", err)
	}
}

// TestDecodeRejects covers the container framing: magic, section names,
// order and repetition, truncation.
func TestDecodeRejects(t *testing.T) {
	f := &obs.File{Run: trace.Meta{Model: "m"}, Trace: &trace.TraceData{}}
	good, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Decode(good); err != nil {
		t.Fatalf("minimal file rejected: %v", err)
	}
	body, err := f.Trace.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	section := func(name string, body []byte) []byte {
		var buf bytes.Buffer
		trace.WriteSection(&buf, []byte(name))
		trace.WriteSection(&buf, body)
		return buf.Bytes()
	}
	header := good[:len(good)-len(section("trace", body))]
	for name, b := range map[string][]byte{
		"bad magic":       append([]byte("NOVAOBS2"), good[8:]...),
		"truncated":       good[:len(good)-1],
		"trailing byte":   append(append([]byte{}, good...), 0),
		"unknown section": append(append([]byte{}, header...), section("trace2", body)...),
		"repeated":        append(append([]byte{}, good...), section("trace", body)...),
		"out of order":    append(append(append([]byte{}, header...), section("span", nil)...), section("trace", body)...),
	} {
		if _, err := obs.Decode(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzObsDecode feeds arbitrary bytes to the one decoder of the
// observation file: it must return an error or a file, never panic, and
// any file it returns must re-encode to exactly the input.
func FuzzObsDecode(f *testing.F) {
	f.Add(runFile(f))
	f.Add([]byte("NOVAOBS1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := obs.Decode(b)
		if err != nil {
			return
		}
		out, err := file.Encode()
		if err != nil {
			t.Fatalf("decoded file does not encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-encode differs: %d bytes in, %d out", len(b), len(out))
		}
	})
}
