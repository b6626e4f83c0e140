// Package obs is the one observation file format of the simulation,
// NOVAOBS1. A file holds everything the recorders attached to one run
// captured:
//
//	"NOVAOBS1"
//	run header    one JSON section (trace.Meta): model, MHz, CPU count,
//	              VPID, cost-model constants, exit-reason and kind names
//	recorders     per attached recorder, in the order trace, prof, stat,
//	              span: a section holding its name, then a section
//	              holding its body (the recorder's MarshalBinary)
//
// Every section is length-prefixed with trace.WriteSection. Encoding is
// deterministic, so two runs from identical inputs give byte-identical
// files, and decoding is strict: any input that decodes re-encodes to
// the same bytes.
package obs

import (
	"bytes"
	"encoding"
	"fmt"
	"slices"

	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/prof"
	"nova/internal/span"
	"nova/internal/stat"
	"nova/internal/trace"
	"nova/internal/x86"
)

const magic = "NOVAOBS1"

// sectionNames lists the recorder sections in file order.
var sectionNames = []string{"trace", "prof", "stat", "span"}

// hotSites is how many of the hottest guest addresses get their
// instruction bytes captured into the profile for disassembly.
const hotSites = 64

// File is one run's observations: the run header and a section for
// each recorder that was attached (nil when it was not).
type File struct {
	Run   trace.Meta
	Trace *trace.TraceData
	Prof  *prof.Data
	Stat  *stat.Data
	Span  *span.Data
}

// header describes the run on plat; vpid is whether the kernel was
// configured to tag TLB entries (false for a native run).
func header(plat *hw.Platform, vpid bool) trace.Meta {
	cost := plat.Cost
	vpid = vpid && cost.HasVPID
	return trace.Meta{
		Model:            cost.Model.String(),
		FreqMHz:          cost.FreqMHz,
		NumCPUs:          len(plat.CPUs),
		VPID:             vpid,
		SyscallEntryExit: uint64(cost.SyscallEntryExit),
		VMTransit:        uint64(cost.VMTransitCost(vpid)),
		VMRead:           uint64(cost.VMRead),
		TLBRefill:        uint64(cost.TLBRefill),
		PageWalkLevel:    uint64(cost.PageWalkLevel),
		CacheLineAccess:  uint64(cost.CacheLineAccess),
		ExitReasons:      x86.ExitReasonNames(),
		KindNames:        trace.KindNames(),
	}
}

// FromKernel collects the recorders attached to k after a run. The
// profile's hot-site code is read from guest's address space (skipped
// when guest is nil); the stats snapshot is taken at the boot CPU's
// current time.
func FromKernel(k *hypervisor.Kernel, guest *hypervisor.EC) *File {
	f := &File{Run: header(k.Plat, k.Cfg.UseVPID)}
	if k.Tracer != nil {
		f.Trace = k.Tracer.Data()
	}
	if k.Prof != nil {
		if guest != nil {
			k.Prof.CaptureCode(hotSites, prof.Reader(k.Plat.Mem, guest.PD.Mem, &guest.VCPU.State))
		}
		f.Prof = k.Prof.Data()
	}
	f.Stat = k.Stat.Snapshot(k.Plat.BootCPU().Clock.Now())
	if k.Spans != nil {
		f.Span = k.Spans.Data()
	}
	return f
}

// FromBareMetal collects the recorders attached to a native run, its
// stat registry st included.
func FromBareMetal(b *hypervisor.BareMetal, st *stat.Registry) *File {
	f := &File{Run: header(b.Plat, false)}
	if b.Prof != nil {
		b.Prof.CaptureCode(hotSites, prof.Reader(b.Plat.Mem, nil, &b.State))
		f.Prof = b.Prof.Data()
	}
	f.Stat = st.Snapshot(b.Plat.BootCPU().Clock.Now())
	return f
}

// section returns the named recorder section, nil when it is absent.
func (f *File) section(name string) encoding.BinaryMarshaler {
	switch {
	case name == "trace" && f.Trace != nil:
		return f.Trace
	case name == "prof" && f.Prof != nil:
		return f.Prof
	case name == "stat" && f.Stat != nil:
		return f.Stat
	case name == "span" && f.Span != nil:
		return f.Span
	}
	return nil
}

// Sections names the recorder sections present, in file order.
func (f *File) Sections() []string {
	var names []string
	for _, name := range sectionNames {
		if f.section(name) != nil {
			names = append(names, name)
		}
	}
	return names
}

// Encode serializes the file.
func (f *File) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := trace.WriteJSON(&buf, f.Run); err != nil {
		return nil, err
	}
	for _, name := range f.Sections() {
		body, err := f.section(name).MarshalBinary()
		if err != nil {
			return nil, err
		}
		trace.WriteSection(&buf, []byte(name))
		trace.WriteSection(&buf, body)
	}
	return buf.Bytes(), nil
}

// Decode parses a NOVAOBS1 file. Each recorder section may appear at
// most once, in file order.
func Decode(b []byte) (*File, error) {
	if !bytes.HasPrefix(b, []byte(magic)) {
		return nil, fmt.Errorf("obs: bad magic (not a %s file)", magic)
	}
	f := &File{}
	b, err := trace.ReadJSON(b[len(magic):], &f.Run)
	if err != nil {
		return nil, fmt.Errorf("obs: run header: %w", err)
	}
	next := 0
	for len(b) > 0 {
		var name, body []byte
		if name, b, err = trace.ReadSection(b); err == nil {
			body, b, err = trace.ReadSection(b)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		i := slices.Index(sectionNames[next:], string(name))
		if i < 0 {
			return nil, fmt.Errorf("obs: unexpected section %q", name)
		}
		next += i + 1
		var u encoding.BinaryUnmarshaler
		switch string(name) {
		case "trace":
			f.Trace = new(trace.TraceData)
			u = f.Trace
		case "prof":
			f.Prof = new(prof.Data)
			u = f.Prof
		case "stat":
			f.Stat = new(stat.Data)
			u = f.Stat
		default:
			f.Span = new(span.Data)
			u = f.Span
		}
		if err := u.UnmarshalBinary(body); err != nil {
			return nil, err
		}
	}
	return f, nil
}
