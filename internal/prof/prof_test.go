package prof

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"nova/internal/hw"
)

func TestTickGridAndWeights(t *testing.T) {
	p := New(1, 100, 16)
	g := GuestCtx{RIP: 0x1000}

	// First observation anchors the grid at now+period; nothing records.
	p.Tick(0, 50, ModeGuest, g)
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("anchor tick recorded %d samples", n)
	}
	// Below the grid point: nothing.
	p.Tick(0, 149, ModeGuest, g)
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("sub-period tick recorded %d samples", n)
	}
	// Crossing one grid point (150): one sample of weight 1.
	p.Tick(0, 150, ModeGuest, g)
	// A long burst crossing 3 grid points (250, 350, 450): weight 3.
	p.Tick(0, 460, ModeGuest, g)

	recs := p.bufs[0].recs()
	if len(recs) != 2 {
		t.Fatalf("got %d samples, want 2", len(recs))
	}
	if recs[0].weight != 1 || recs[1].weight != 3 {
		t.Fatalf("weights = %d, %d, want 1, 3", recs[0].weight, recs[1].weight)
	}
	if got := p.Data().TotalSamples(); got != 4 {
		t.Fatalf("TotalSamples = %d, want 4", got)
	}
	// The grid stays aligned: next should be 550, so 549 records nothing.
	p.Tick(0, 549, ModeGuest, g)
	if len(p.bufs[0].recs()) != 2 {
		t.Fatal("tick below the realigned grid point recorded a sample")
	}
}

func TestSkipIdleAdvancesWithoutRecording(t *testing.T) {
	p := New(1, 100, 16)
	p.Tick(0, 0, ModeGuest, GuestCtx{RIP: 1}) // anchor; next = 100
	p.SkipIdle(0, 1000)                       // crosses many grid points
	if n := p.bufs[0].Len(); n != 0 {
		t.Fatalf("SkipIdle recorded %d samples", n)
	}
	// Grid continued through the idle span: next = 1100.
	p.Tick(0, 1099, ModeGuest, GuestCtx{RIP: 1})
	if p.bufs[0].Len() != 0 {
		t.Fatal("tick before post-idle grid point recorded a sample")
	}
	p.Tick(0, 1100, ModeGuest, GuestCtx{RIP: 1})
	if p.bufs[0].Len() != 1 {
		t.Fatal("tick at post-idle grid point did not record")
	}
}

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Tick(0, 100, ModeGuest, GuestCtx{})
	p.SkipIdle(0, 100)
	p.Attribute(AttribExit, 0, false, 1)
	p.CaptureCode(4, func(uint32) (uint32, bool) { return 0, false })
	if d := p.Data(); len(d.Samples) != 0 {
		t.Fatal("nil profiler produced sample data")
	}
}

func TestBufOverwrite(t *testing.T) {
	p := New(1, 10, 4)
	p.Tick(0, 0, ModeGuest, GuestCtx{}) // anchor
	for i := 1; i <= 7; i++ {
		p.Tick(0, hw.Cycles(i*10), ModeGuest, GuestCtx{RIP: uint32(i)})
	}
	b := p.bufs[0]
	if b.Len() != 4 || b.Overwritten() != 3 {
		t.Fatalf("Len=%d Overwritten=%d, want 4 and 3", b.Len(), b.Overwritten())
	}
	recs := b.recs()
	// Oldest-first: samples 4..7 survive.
	for i, r := range recs {
		if want := uint32(i + 4); r.frames[0] != want {
			t.Errorf("rec %d rip=%d, want %d", i, r.frames[0], want)
		}
	}
}

func TestAttribSetSortedAggregation(t *testing.T) {
	p := New(1, 10, 4)
	// Insert out of order, with one repeat.
	p.Attribute(AttribVTLBFill, 0x300, false, 7)
	p.Attribute(AttribExit, 0x200, true, 5)
	p.Attribute(AttribExit, 0x100, false, 3)
	p.Attribute(AttribExit, 0x200, true, 5)

	got := p.Data().Attrib
	want := []AttribEntry{
		{Kind: AttribExit, RIP: 0x100, Def32: false, Count: 1, Cycles: 3},
		{Kind: AttribExit, RIP: 0x200, Def32: true, Count: 2, Cycles: 10},
		{Kind: AttribVTLBFill, RIP: 0x300, Def32: false, Count: 1, Cycles: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attrib = %+v, want %+v", got, want)
	}
}

// populated builds a profiler with samples on two CPUs, attributions
// and captured code, exercising every section of the encoding.
func populated(t *testing.T) *Profiler {
	t.Helper()
	p := New(2, 100, 8)
	stack := map[uint32]uint32{0x1000: 0, 0x1004: 0x8010}
	read := func(va uint32) (uint32, bool) { v, ok := stack[va]; return v, ok }
	for cpu := 0; cpu < 2; cpu++ {
		p.Tick(cpu, 0, ModeGuest, GuestCtx{})
		for i := 1; i <= 5; i++ {
			p.Tick(cpu, hw.Cycles(i*100), ModeGuest,
				GuestCtx{RIP: 0x8000 + uint32(i), Def32: true, EBP: 0x1000, Read: read})
		}
	}
	p.Tick(0, 700, ModeEmulation, GuestCtx{RIP: 0x9000})
	p.Attribute(AttribExit, 0x8001, true, 400)
	p.Attribute(AttribEmulate, 0x9000, false, 450)
	code := []byte{0x90, 0xc3}
	p.CaptureCode(4, func(va uint32) (uint32, bool) {
		if int(va-0x8000) < len(code)*1000 {
			return binary.LittleEndian.Uint32([]byte{code[0], code[1], code[0], code[1]}), true
		}
		return 0, false
	})
	return p
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := populated(t)
	b, err := p.Data().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Data
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&d, p.Data()) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", &d, p.Data())
	}
}

func TestEncodeByteIdentity(t *testing.T) {
	p := populated(t)
	b1, err := p.Data().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Data().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two encodings of the same profiler differ")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	p := populated(t)
	b, err := p.Data().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Data
	if err := d.UnmarshalBinary(b[:len(b)-1]); err == nil {
		t.Error("truncated profile decoded")
	}
	if err := d.UnmarshalBinary(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing bytes decoded")
	}
	if err := d.UnmarshalBinary(nil); err == nil {
		t.Error("empty profile decoded")
	}
	// A flag byte other than 0 or 1 would not re-encode to itself.
	bad := append([]byte{}, b...)
	code := p.Data().Code
	bad[len(bad)-len(code[len(code)-1].Bytes)-2] = 2 // the last code site's def32
	if err := d.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "flag") {
		t.Error("flag byte 2 decoded")
	}
}

func TestHotRanking(t *testing.T) {
	d := populated(t).Data()
	hot := d.Hot(3)
	if len(hot) == 0 {
		t.Fatal("no hot rows")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].TotalCycles() > hot[i-1].TotalCycles() {
			t.Fatalf("hot table not sorted: row %d (%d) > row %d (%d)",
				i, hot[i].TotalCycles(), i-1, hot[i-1].TotalCycles())
		}
	}
	// 0x8001 carries one sample per CPU (100 cycles each) plus a
	// 400-cycle exit.
	for _, h := range hot {
		if h.Addr == 0x8001 {
			if h.Samples != 2 || h.Exits != 1 || h.TotalCycles() != 600 {
				t.Fatalf("0x8001 row = %+v, want samples=2 exits=1 total=600", h)
			}
			return
		}
	}
	t.Fatal("0x8001 missing from hot table")
}

func TestFoldedDeterministicAndMerged(t *testing.T) {
	d := populated(t).Data()
	lines := d.Folded()
	if len(lines) == 0 {
		t.Fatal("no folded output")
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("folded lines not strictly sorted: %q after %q", lines[i], lines[i-1])
		}
	}
	if !reflect.DeepEqual(lines, d.Folded()) {
		t.Fatal("two foldings of the same data differ")
	}
}

func TestWritePprofDeterministic(t *testing.T) {
	d := populated(t).Data()
	var b1, b2 bytes.Buffer
	if err := d.WritePprof(&b1); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePprof(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.Len() == 0 {
		t.Fatal("empty pprof output")
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two pprof encodings of the same data differ")
	}
}
