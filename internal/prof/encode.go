package prof

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nova/internal/hw"
	"nova/internal/trace"
)

// recHdrSize is the fixed prefix of one sample record:
// time(8) + weight(8) + mode(1) + def32(1) + nframes(1).
const recHdrSize = 8 + 8 + 1 + 1 + 1

// attribEntrySize is the fixed size of one attribution record:
// kind(1) + def32(1) + rip(4) + count(8) + cycles(8).
const attribEntrySize = 1 + 1 + 4 + 8 + 8

// MarshalBinary encodes the prof section of a NOVAOBS1 file: the meta
// JSON, then the per-CPU sample buffers, the attribution table and the
// code sites, each as one length-prefixed section. Struct-based JSON,
// fixed little-endian records and pre-sorted attribution keys make two
// runs from identical inputs encode to identical bytes.
func (d *Data) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, d.Meta); err != nil {
		return nil, err
	}

	var samples bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(d.Samples)))
	samples.Write(tmp[:4])
	for cpu, per := range d.Samples {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(per)))
		var over uint64
		if cpu < len(d.Overwritten) {
			over = d.Overwritten[cpu]
		}
		binary.LittleEndian.PutUint64(hdr[4:], over)
		samples.Write(hdr[:])
		for _, s := range per {
			var rec [recHdrSize]byte
			binary.LittleEndian.PutUint64(rec[0:], uint64(s.Time))
			binary.LittleEndian.PutUint64(rec[8:], s.Weight)
			rec[16] = uint8(s.Mode)
			rec[17] = b2u(s.Def32)
			n := len(s.Frames)
			if n > MaxFrames {
				n = MaxFrames
			}
			rec[18] = uint8(n)
			samples.Write(rec[:])
			for _, f := range s.Frames[:n] {
				binary.LittleEndian.PutUint32(tmp[:4], f)
				samples.Write(tmp[:4])
			}
		}
	}
	trace.WriteSection(&buf, samples.Bytes())

	var attrib bytes.Buffer
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(d.Attrib)))
	attrib.Write(tmp[:4])
	for _, a := range d.Attrib {
		var rec [attribEntrySize]byte
		rec[0] = uint8(a.Kind)
		rec[1] = b2u(a.Def32)
		binary.LittleEndian.PutUint32(rec[2:], a.RIP)
		binary.LittleEndian.PutUint64(rec[6:], a.Count)
		binary.LittleEndian.PutUint64(rec[14:], a.Cycles)
		attrib.Write(rec[:])
	}
	trace.WriteSection(&buf, attrib.Bytes())

	var code bytes.Buffer
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(d.Code)))
	code.Write(tmp[:4])
	for _, c := range d.Code {
		n := len(c.Bytes)
		if n > maxInstBytes {
			n = maxInstBytes
		}
		var rec [6]byte
		binary.LittleEndian.PutUint32(rec[0:], c.Addr)
		rec[4] = b2u(c.Def32)
		rec[5] = uint8(n)
		code.Write(rec[:])
		code.Write(c.Bytes[:n])
	}
	trace.WriteSection(&buf, code.Bytes())
	return buf.Bytes(), nil
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// UnmarshalBinary decodes a prof section written by MarshalBinary.
func (d *Data) UnmarshalBinary(b []byte) error {
	*d = Data{}
	b, err := trace.ReadJSON(b, &d.Meta)
	if err != nil {
		return fmt.Errorf("prof: meta: %w", err)
	}
	for _, part := range []struct {
		name   string
		decode func([]byte) error
	}{{"samples", d.decodeSamples}, {"attrib", d.decodeAttrib}, {"code", d.decodeCode}} {
		var body []byte
		if body, b, err = trace.ReadSection(b); err != nil {
			return fmt.Errorf("prof: %s: %w", part.name, err)
		}
		if err := part.decode(body); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("prof: %d trailing bytes", len(b))
	}
	return nil
}

// u2b decodes a flag byte; anything but 0 or 1 would not re-encode to
// the same byte.
func u2b(v uint8) (bool, error) {
	if v > 1 {
		return false, fmt.Errorf("prof: bad flag byte %#x", v)
	}
	return v == 1, nil
}

func (d *Data) decodeSamples(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("prof: truncated CPU count")
	}
	cpus := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if cpus > len(b)/12 {
		return fmt.Errorf("prof: implausible CPU count %d", cpus)
	}
	for cpu := 0; cpu < cpus; cpu++ {
		if len(b) < 12 {
			return fmt.Errorf("prof: truncated buffer header (cpu %d)", cpu)
		}
		count := int(binary.LittleEndian.Uint32(b))
		over := binary.LittleEndian.Uint64(b[4:])
		b = b[12:]
		if count > len(b)/recHdrSize {
			return fmt.Errorf("prof: implausible sample count %d (cpu %d)", count, cpu)
		}
		per := make([]Sample, 0, count)
		for i := 0; i < count; i++ {
			if len(b) < recHdrSize {
				return fmt.Errorf("prof: truncated sample (cpu %d)", cpu)
			}
			def32, err := u2b(b[17])
			if err != nil {
				return err
			}
			s := Sample{
				Time:   hw.Cycles(binary.LittleEndian.Uint64(b[0:])),
				Weight: binary.LittleEndian.Uint64(b[8:]),
				Mode:   Mode(b[16]),
				Def32:  def32,
			}
			nf := int(b[18])
			b = b[recHdrSize:]
			if nf > MaxFrames || len(b) < nf*4 {
				return fmt.Errorf("prof: truncated frames (cpu %d)", cpu)
			}
			for f := 0; f < nf; f++ {
				s.Frames = append(s.Frames, binary.LittleEndian.Uint32(b[f*4:]))
			}
			b = b[nf*4:]
			per = append(per, s)
		}
		d.Samples = append(d.Samples, per)
		d.Overwritten = append(d.Overwritten, over)
	}
	if len(b) != 0 {
		return fmt.Errorf("prof: %d trailing sample bytes", len(b))
	}
	return nil
}

func (d *Data) decodeAttrib(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("prof: truncated attrib count")
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) != count*attribEntrySize {
		return fmt.Errorf("prof: malformed attrib table")
	}
	for i := 0; i < count; i++ {
		rec := b[i*attribEntrySize:]
		def32, err := u2b(rec[1])
		if err != nil {
			return err
		}
		d.Attrib = append(d.Attrib, AttribEntry{
			Kind:   AttribKind(rec[0]),
			Def32:  def32,
			RIP:    binary.LittleEndian.Uint32(rec[2:]),
			Count:  binary.LittleEndian.Uint64(rec[6:]),
			Cycles: binary.LittleEndian.Uint64(rec[14:]),
		})
	}
	return nil
}

func (d *Data) decodeCode(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("prof: truncated code count")
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if count > len(b)/6 {
		return fmt.Errorf("prof: implausible code-site count %d", count)
	}
	for i := 0; i < count; i++ {
		if len(b) < 6 {
			return fmt.Errorf("prof: truncated code site")
		}
		def32, err := u2b(b[4])
		if err != nil {
			return err
		}
		site := CodeSite{
			Addr:  binary.LittleEndian.Uint32(b[0:]),
			Def32: def32,
		}
		n := int(b[5])
		b = b[6:]
		if n == 0 || n > maxInstBytes || len(b) < n {
			return fmt.Errorf("prof: bad code-site length %d", n)
		}
		site.Bytes = append(site.Bytes, b[:n]...)
		b = b[n:]
		d.Code = append(d.Code, site)
	}
	if len(b) != 0 {
		return fmt.Errorf("prof: %d trailing code bytes", len(b))
	}
	return nil
}
