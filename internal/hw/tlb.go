package hw

// TLBTag identifies the address-space tag of a TLB entry. On hardware
// with VPID/ASID support, guest entries carry the VM's tag and survive
// VM transitions; tag 0 is the host/hypervisor tag. Without tagging
// support every transition flushes the whole TLB.
type TLBTag uint16

// HostTag is the TLB tag of host-mode translations.
const HostTag TLBTag = 0

// TLBEntry is one cached translation.
type TLBEntry struct {
	Tag      TLBTag
	VPN      uint32 // virtual page number (vaddr >> 12)
	PFN      uint64 // physical frame number (paddr >> 12)
	Large    bool   // entry covers a large page
	Writable bool
	User     bool
	Global   bool // survives single-tag flushes (PGE)
}

// TLBStats counts TLB activity; the Figure 5 paging-mode deltas and the
// "TLB effects" box of Figure 8 derive from these.
type TLBStats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	FlushAll   uint64
	FlushTag   uint64
	FlushVA    uint64
	FlushedEnt uint64 // total entries dropped by flushes
}

// TLB models a tagged, capacity-limited translation cache with separate
// small-page and large-page arrays (as on Nehalem-class hardware). A
// large-page entry covers an entire 2M/4M region with a single entry,
// which is why large host pages lower TLB pressure (Figure 5's "EPT,
// small pages" bars).
//
// Each array is fully associative with a fixed capacity and evicts in
// true FIFO order: a full array drops the entry inserted longest ago,
// counting only entries still present. Lookup, insert, eviction and
// FlushVA are O(1); FlushTag walks the occupied slots, O(capacity);
// FlushAll is a reset.
type TLB struct {
	small tlbArray
	large tlbArray

	largeShift uint // log2 of the large page size (21 for 2M, 22 for 4M)

	Stats TLBStats
}

// NewTLB creates a TLB with the given entry capacities and large-page
// size in bytes (must be a power of two >= 2M). A capacity below one
// holds one entry.
func NewTLB(smallCap, largeCap int, largePage uint32) *TLB {
	shift := uint(0)
	for p := largePage; p > 1; p >>= 1 {
		shift++
	}
	t := &TLB{largeShift: shift}
	t.small.init(smallCap)
	t.large.init(largeCap)
	return t
}

// LargePageSize returns the large page size in bytes.
func (t *TLB) LargePageSize() uint32 { return 1 << t.largeShift }

func (t *TLB) largeVPN(vaddr uint32) uint32 { return vaddr >> t.largeShift }

// Lookup searches for a translation of vaddr under tag. On a hit it
// returns the entry, which stays valid only until the next insert or
// flush.
func (t *TLB) Lookup(tag TLBTag, vaddr uint32) (*TLBEntry, bool) {
	if i := t.large.find(tag, t.largeVPN(vaddr)); i != tlbNil {
		t.Stats.Hits++
		return &t.large.slots[i].e, true
	}
	if i := t.small.find(tag, vaddr>>12); i != tlbNil {
		t.Stats.Hits++
		return &t.small.slots[i].e, true
	}
	t.Stats.Misses++
	return nil, false
}

// InsertSmall caches a 4K translation for vaddr.
func (t *TLB) InsertSmall(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	t.Stats.Fills++
	if t.small.insert(TLBEntry{
		Tag: tag, VPN: vaddr >> 12, PFN: pfn, Writable: writable, User: user, Global: global,
	}) {
		t.Stats.Evictions++
	}
}

// InsertLarge caches a large-page translation for vaddr. pfn is the
// physical frame number of the large frame base (paddr >> 12).
func (t *TLB) InsertLarge(tag TLBTag, vaddr uint32, pfn uint64, writable, user, global bool) {
	t.Stats.Fills++
	if t.large.insert(TLBEntry{
		Tag: tag, VPN: t.largeVPN(vaddr), PFN: pfn, Large: true, Writable: writable, User: user, Global: global,
	}) {
		t.Stats.Evictions++
	}
}

// Translate returns the physical address for vaddr if cached, with the
// entry as Lookup returns it.
func (t *TLB) Translate(tag TLBTag, vaddr uint32) (PhysAddr, *TLBEntry, bool) {
	e, ok := t.Lookup(tag, vaddr)
	if !ok {
		return 0, nil, false
	}
	if e.Large {
		mask := uint32(1)<<t.largeShift - 1
		return PhysAddr(e.PFN)<<12 + PhysAddr(vaddr&mask), e, true
	}
	return PhysAddr(e.PFN)<<12 + PhysAddr(vaddr&0xfff), e, true
}

// FlushAll drops every entry (untagged hardware on a world switch, or
// MOV CR3 with PGE disabled dropping even global entries is modeled by
// the caller choosing FlushAll vs FlushTag).
func (t *TLB) FlushAll() {
	t.Stats.FlushAll++
	t.Stats.FlushedEnt += uint64(t.small.n + t.large.n)
	t.small.reset()
	t.large.reset()
}

// FlushTag drops all non-global entries with the given tag (tagged
// address-space switch / INVVPID single-context).
func (t *TLB) FlushTag(tag TLBTag) {
	t.Stats.FlushTag++
	t.Stats.FlushedEnt += t.small.flushTag(tag) + t.large.flushTag(tag)
}

// FlushVA drops the entry covering vaddr under tag (INVLPG).
func (t *TLB) FlushVA(tag TLBTag, vaddr uint32) {
	t.Stats.FlushVA++
	if i := t.small.find(tag, vaddr>>12); i != tlbNil {
		t.small.remove(i)
		t.Stats.FlushedEnt++
	}
	if i := t.large.find(tag, t.largeVPN(vaddr)); i != tlbNil {
		t.large.remove(i)
		t.Stats.FlushedEnt++
	}
}

// Len returns the number of cached entries.
func (t *TLB) Len() int { return t.small.n + t.large.n }

// tlbNil is the null slot link.
const tlbNil = -1

// tlbSlot holds one entry by value with its links: next chains the
// slot into its hash bucket (or the free list), older/newer into the
// insertion order.
type tlbSlot struct {
	e            TLBEntry
	next         int32
	older, newer int32
}

// tlbArray is one fully associative, fixed-capacity, true-FIFO array.
// A chained hash index (buckets, at least twice the capacity) finds a
// slot; the insertion-order list runs from oldest to newest.
type tlbArray struct {
	slots   []tlbSlot
	buckets []int32 // head slot of each hash chain
	mask    uint32  // len(buckets)-1
	free    int32   // head of the free-slot list
	oldest  int32
	newest  int32
	n       int
}

func (a *tlbArray) init(capn int) {
	capn = max(capn, 1)
	nb := 2
	for nb < 2*capn {
		nb <<= 1
	}
	a.slots = make([]tlbSlot, capn)
	a.buckets = make([]int32, nb)
	a.mask = uint32(nb - 1)
	a.reset()
}

// reset empties the array: every bucket null, every slot free.
func (a *tlbArray) reset() {
	for b := range a.buckets {
		a.buckets[b] = tlbNil
	}
	for i := range a.slots {
		a.slots[i].next = int32(i + 1)
	}
	a.slots[len(a.slots)-1].next = tlbNil
	a.free, a.oldest, a.newest, a.n = 0, tlbNil, tlbNil, 0
}

// bucket returns the hash bucket of (tag, vpn), masked to the table.
func (a *tlbArray) bucket(tag TLBTag, vpn uint32) *int32 {
	h := (vpn ^ uint32(tag)<<16) * 0x9e3779b1
	// sanitized: masked by a.mask = len(a.buckets)-1, a power of two minus one.
	return &a.buckets[(h^h>>16)&a.mask]
}

// find returns the slot holding (tag, vpn), or tlbNil.
func (a *tlbArray) find(tag TLBTag, vpn uint32) int32 {
	i := *a.bucket(tag, vpn)
	for i != tlbNil {
		s := &a.slots[i]
		if s.e.VPN == vpn && s.e.Tag == tag {
			return i
		}
		i = s.next
	}
	return tlbNil
}

// insert stores e and reports whether that evicted the oldest entry. A
// key already present is refilled in place and keeps its FIFO position.
func (a *tlbArray) insert(e TLBEntry) (evicted bool) {
	if i := a.find(e.Tag, e.VPN); i != tlbNil {
		a.slots[i].e = e
		return false
	}
	if a.free == tlbNil {
		a.remove(a.oldest)
		evicted = true
	}
	i := a.free
	s := &a.slots[i]
	a.free = s.next
	head := a.bucket(e.Tag, e.VPN)
	s.e, s.next, *head = e, *head, i
	s.older, s.newer = a.newest, tlbNil
	if a.newest != tlbNil {
		a.slots[a.newest].newer = i
	} else {
		a.oldest = i
	}
	a.newest = i
	a.n++
	return evicted
}

// remove unlinks occupied slot i from its hash chain and the insertion
// order, and frees it.
func (a *tlbArray) remove(i int32) {
	s := &a.slots[i]
	p := a.bucket(s.e.Tag, s.e.VPN)
	for *p != i {
		p = &a.slots[*p].next
	}
	*p = s.next
	if s.older != tlbNil {
		a.slots[s.older].newer = s.newer
	} else {
		a.oldest = s.newer
	}
	if s.newer != tlbNil {
		a.slots[s.newer].older = s.older
	} else {
		a.newest = s.older
	}
	s.next, a.free = a.free, i
	a.n--
}

// flushTag removes the non-global entries tagged tag, walking the
// occupied slots oldest to newest, and returns how many it removed.
func (a *tlbArray) flushTag(tag TLBTag) (dropped uint64) {
	for i := a.oldest; i != tlbNil; {
		s := &a.slots[i]
		next := s.newer
		if s.e.Tag == tag && !s.e.Global {
			a.remove(i)
			dropped++
		}
		i = next
	}
	return dropped
}
