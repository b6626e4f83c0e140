package hw

import (
	"testing"
	"testing/quick"
)

func TestTLBInsertLookupSmall(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 0x42, true, false, false)
	pa, e, ok := tlb.Translate(1, 0x1234)
	if !ok {
		t.Fatal("miss after insert")
	}
	if pa != 0x42<<12|0x234 {
		t.Errorf("pa = %#x", pa)
	}
	if !e.Writable || e.User {
		t.Errorf("perms wrong: %+v", e)
	}
	// Different tag misses.
	if _, _, ok := tlb.Translate(2, 0x1234); ok {
		t.Error("hit under wrong tag")
	}
}

func TestTLBLargePageCoverage(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	// One large entry covers the whole 2M region.
	tlb.InsertLarge(1, 0x00200000, 0x800, true, true, false)
	for _, va := range []uint32{0x00200000, 0x00200fff, 0x003fffff} {
		pa, e, ok := tlb.Translate(1, va)
		if !ok {
			t.Fatalf("large-page miss at %#x", va)
		}
		if !e.Large {
			t.Fatal("entry not large")
		}
		want := PhysAddr(0x800)<<12 + PhysAddr(va&0x1fffff)
		if pa != want {
			t.Errorf("pa(%#x) = %#x, want %#x", va, pa, want)
		}
	}
	// Next region misses.
	if _, _, ok := tlb.Translate(1, 0x00400000); ok {
		t.Error("hit outside large page")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := NewTLB(4, 2, 2<<20)
	for i := uint32(0); i < 8; i++ {
		tlb.InsertSmall(1, i<<12, uint64(i), false, false, false)
	}
	if tlb.Len() > 4+0 {
		t.Errorf("TLB over capacity: %d entries", tlb.Len())
	}
	if tlb.Stats.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", tlb.Stats.Evictions)
	}
	// FIFO: oldest entries gone, newest present.
	if _, ok := tlb.Lookup(1, 0); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := tlb.Lookup(1, 7<<12); !ok {
		t.Error("newest entry evicted")
	}
}

func TestTLBFlushTagSparesOtherTagsAndGlobals(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.InsertSmall(1, 0x2000, 2, false, false, true) // global
	tlb.InsertSmall(2, 0x1000, 3, false, false, false)
	tlb.FlushTag(1)
	if _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Error("flushed entry survived")
	}
	if _, ok := tlb.Lookup(1, 0x2000); !ok {
		t.Error("global entry flushed by FlushTag")
	}
	if _, ok := tlb.Lookup(2, 0x1000); !ok {
		t.Error("other tag flushed")
	}
}

func TestTLBFlushAllDropsEverything(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, true)
	tlb.InsertLarge(2, 0x200000, 2, false, false, false)
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Errorf("entries after FlushAll: %d", tlb.Len())
	}
	if tlb.Stats.FlushedEnt != 2 {
		t.Errorf("FlushedEnt = %d, want 2", tlb.Stats.FlushedEnt)
	}
}

func TestTLBFlushVA(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.InsertSmall(1, 0x2000, 2, false, false, false)
	tlb.FlushVA(1, 0x1800) // same page as 0x1000
	if _, ok := tlb.Lookup(1, 0x1000); ok {
		t.Error("INVLPG'd entry survived")
	}
	if _, ok := tlb.Lookup(1, 0x2000); !ok {
		t.Error("unrelated entry flushed")
	}
}

func TestTLBStatsCounting(t *testing.T) {
	tlb := NewTLB(16, 4, 2<<20)
	tlb.Lookup(1, 0x1000) // miss
	tlb.InsertSmall(1, 0x1000, 1, false, false, false)
	tlb.Lookup(1, 0x1000) // hit
	if tlb.Stats.Misses != 1 || tlb.Stats.Hits != 1 || tlb.Stats.Fills != 1 {
		t.Errorf("stats = %+v", tlb.Stats)
	}
}

func TestTLBTranslationProperty(t *testing.T) {
	// Property: translate(insert(va, pfn)) preserves the page offset and
	// maps the page number to pfn, for arbitrary va/pfn.
	f := func(vaRaw uint32, pfnRaw uint32, tagRaw uint8) bool {
		tlb := NewTLB(8, 2, 2<<20)
		tag := TLBTag(tagRaw)
		pfn := uint64(pfnRaw) & 0xfffff
		tlb.InsertSmall(tag, vaRaw, pfn, true, true, false)
		pa, _, ok := tlb.Translate(tag, vaRaw)
		return ok && pa == PhysAddr(pfn)<<12+PhysAddr(vaRaw&0xfff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBFIFOAfterFlushVA(t *testing.T) {
	// Pages A–E, one small entry each. A–D fill a 4-entry array, the
	// flush drops some of them, they are re-inserted, and E then evicts
	// the oldest entry still present; the re-inserted ones are newest.
	pages := [5]uint32{0xa000, 0xb000, 0xc000, 0xd000, 0xe000}
	for _, tc := range []struct {
		name   string
		tags   [5]TLBTag
		flush  func(*TLB)
		refill []int
		evict  int
	}{
		{"flushva", [5]TLBTag{1, 1, 1, 1, 1}, func(tlb *TLB) { tlb.FlushVA(1, pages[0]) }, []int{0}, 1},
		{"flushtag", [5]TLBTag{1, 1, 2, 2, 2}, func(tlb *TLB) { tlb.FlushTag(1) }, []int{0, 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tlb := NewTLB(4, 1, 2<<20)
			insert := func(p int) {
				tlb.InsertSmall(tc.tags[p], pages[p], uint64(pages[p]>>12), false, false, false)
			}
			for p := 0; p < 4; p++ {
				insert(p)
			}
			tc.flush(tlb)
			for _, p := range tc.refill {
				insert(p)
			}
			insert(4)
			if tlb.Stats.Evictions != 1 || tlb.Len() != 4 {
				t.Fatalf("evictions = %d, len = %d, want 1 and 4", tlb.Stats.Evictions, tlb.Len())
			}
			for p, va := range pages {
				if _, present := tlb.Lookup(tc.tags[p], va); present == (p == tc.evict) {
					t.Errorf("page %c present=%v; want only %c, the oldest, evicted", 'A'+p, present, 'A'+tc.evict)
				}
			}
		})
	}
}

// tlbModel is a slice-based reference TLB: each array is a list in
// insertion order, evicting index 0 when full.
type tlbModel struct {
	small, large       []TLBEntry
	smallCap, largeCap int
	largeShift         uint
	stats              TLBStats
}

func (m *tlbModel) index(arr []TLBEntry, tag TLBTag, vpn uint32) int {
	for i, e := range arr {
		if e.Tag == tag && e.VPN == vpn {
			return i
		}
	}
	return -1
}

func (m *tlbModel) lookup(tag TLBTag, va uint32) (TLBEntry, bool) {
	if i := m.index(m.large, tag, va>>m.largeShift); i >= 0 {
		m.stats.Hits++
		return m.large[i], true
	}
	if i := m.index(m.small, tag, va>>12); i >= 0 {
		m.stats.Hits++
		return m.small[i], true
	}
	m.stats.Misses++
	return TLBEntry{}, false
}

func (m *tlbModel) insert(arr *[]TLBEntry, capn int, e TLBEntry) {
	m.stats.Fills++
	if i := m.index(*arr, e.Tag, e.VPN); i >= 0 {
		(*arr)[i] = e
		return
	}
	if len(*arr) == capn {
		*arr = (*arr)[1:]
		m.stats.Evictions++
	}
	*arr = append(*arr, e)
}

func (m *tlbModel) drop(arr []TLBEntry, keep func(TLBEntry) bool) []TLBEntry {
	out := arr[:0:0]
	for _, e := range arr {
		if keep(e) {
			out = append(out, e)
		} else {
			m.stats.FlushedEnt++
		}
	}
	return out
}

// FuzzTLB drives TLB and tlbModel with the same call sequence, decoded
// from the input, and requires identical results after every call.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0x31, 0, 1, 0x10, 7, 2, 1, 0x10, 0, 3, 1, 0x10, 0, 3, 2, 0x10, 0})
	f.Add([]byte{0x00, 0, 1, 0, 1, 0, 1, 1, 2, 0, 1, 2, 3, 5, 1, 0, 0, 0, 1, 1, 0, 1, 3, 0})
	f.Add([]byte{0x21, 1, 0x9, 0x21, 4, 1, 0x9, 0x22, 4, 1, 0x9, 0x23, 4, 4, 1, 0, 0, 1, 0x9, 0x21, 5, 2, 1, 0x21, 0})
	f.Add([]byte{0x12, 0, 2, 0x40, 1, 0, 0x0a, 0x41, 2, 0, 0x12, 0x42, 3, 1, 0, 0x41, 0, 6, 0, 0, 0, 3, 0, 0x40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Small capacity 1–8, large capacity 1–4, 2M large pages.
		smallCap, largeCap := int(data[0]&7)+1, int(data[0]>>3&3)+1
		tlb := NewTLB(smallCap, largeCap, 2<<20)
		m := &tlbModel{smallCap: smallCap, largeCap: largeCap, largeShift: 21}
		for ops, p := 0, data[1:]; len(p) >= 4; ops, p = ops+1, p[4:] {
			// op, flags (tag in bits 0–1, writable/user/global in 2–4),
			// page (large region in bits 0–2, small page in 3–7), pfn.
			op, flags := p[0]%7, p[1]
			tag := TLBTag(flags & 3)
			writable, user, global := flags&4 != 0, flags&8 != 0, flags&16 != 0
			va := uint32(p[2]&7)<<21 | uint32(p[2]>>3)<<12 | uint32(p[3])
			pfn := uint64(p[3]) << 9
			switch op {
			case 0:
				e, ok := tlb.Lookup(tag, va)
				want, wantOK := m.lookup(tag, va)
				if ok != wantOK || (ok && *e != want) {
					t.Fatalf("op %d Lookup(%d, %#x) = %+v, %v; model %+v, %v", ops, tag, va, e, ok, want, wantOK)
				}
			case 1:
				pa, e, ok := tlb.Translate(tag, va)
				want, wantOK := m.lookup(tag, va)
				var wantPA PhysAddr
				if want.Large {
					wantPA = PhysAddr(want.PFN)<<12 + PhysAddr(va&(1<<21-1))
				} else if wantOK {
					wantPA = PhysAddr(want.PFN)<<12 + PhysAddr(va&0xfff)
				}
				if ok != wantOK || pa != wantPA || (ok && *e != want) {
					t.Fatalf("op %d Translate(%d, %#x) = %#x, %+v, %v; model %#x, %+v, %v", ops, tag, va, pa, e, ok, wantPA, want, wantOK)
				}
			case 2:
				tlb.InsertSmall(tag, va, pfn, writable, user, global)
				m.insert(&m.small, m.smallCap, TLBEntry{Tag: tag, VPN: va >> 12, PFN: pfn,
					Writable: writable, User: user, Global: global})
			case 3:
				tlb.InsertLarge(tag, va, pfn, writable, user, global)
				m.insert(&m.large, m.largeCap, TLBEntry{Tag: tag, VPN: va >> 21, PFN: pfn, Large: true,
					Writable: writable, User: user, Global: global})
			case 4:
				tlb.FlushVA(tag, va)
				m.stats.FlushVA++
				m.small = m.drop(m.small, func(e TLBEntry) bool { return e.Tag != tag || e.VPN != va>>12 })
				m.large = m.drop(m.large, func(e TLBEntry) bool { return e.Tag != tag || e.VPN != va>>21 })
			case 5:
				tlb.FlushTag(tag)
				m.stats.FlushTag++
				m.small = m.drop(m.small, func(e TLBEntry) bool { return e.Tag != tag || e.Global })
				m.large = m.drop(m.large, func(e TLBEntry) bool { return e.Tag != tag || e.Global })
			case 6:
				tlb.FlushAll()
				m.stats.FlushAll++
				m.small = m.drop(m.small, func(TLBEntry) bool { return false })
				m.large = m.drop(m.large, func(TLBEntry) bool { return false })
			}
			if n := len(m.small) + len(m.large); tlb.Len() != n {
				t.Fatalf("op %d (%d): Len = %d, model %d", ops, op, tlb.Len(), n)
			}
			if tlb.Stats != m.stats {
				t.Fatalf("op %d (%d): stats %+v, model %+v", ops, op, tlb.Stats, m.stats)
			}
		}
	})
}
