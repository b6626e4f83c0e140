package cap

import "fmt"

// PageSize of the memory space (matches the platform).
const PageSize = 4096

// mapping is a page's value in the mapping database.
type mapping struct {
	frame  uint64 // host frame number
	rights Rights
}

// MemSpace is a protection domain's memory space: the page-granular
// mapping from the PD's addresses (host-virtual for applications,
// guest-physical for VMs) to host frames, with full delegation
// tracking. The hypervisor's host page tables are materialized from
// this (§5.3, §6).
type MemSpace struct {
	name string
	t    tree[uint32, mapping]

	// Version increments on any change so cached translations (host
	// TLB, EPT caches) can be invalidated.
	Version uint64
}

// NewMemSpace creates an empty memory space.
func NewMemSpace(name string) *MemSpace {
	m := &MemSpace{name: name}
	m.t.bump = &m.Version
	return m
}

// Name returns the space's debugging name.
func (m *MemSpace) Name() string { return m.name }

// Len returns the number of mapped pages.
func (m *MemSpace) Len() int { return len(m.t.index) }

// InsertRoot installs a root mapping of npages pages starting at page
// (address>>12) onto consecutive host frames starting at frame. Used by
// the hypervisor at boot to hand all physical memory to the root
// partition manager.
func (m *MemSpace) InsertRoot(page uint32, frame uint64, npages int, rights Rights) error {
	if m.t.closed {
		return ErrSpaceClosed
	}
	for i := 0; i < npages; i++ {
		if p := page + uint32(i); m.t.index[p] != nil {
			return fmt.Errorf("cap: page %#x already mapped in %s", p, m.name)
		}
	}
	ents := m.t.alloc(page, npages)
	for i := range ents {
		ents[i].val = mapping{frame: frame + uint64(i), rights: rights}
		m.t.add(&ents[i], nil)
	}
	m.Version++
	return nil
}

// Translate resolves a page to its host frame and rights.
func (m *MemSpace) Translate(page uint32) (uint64, Rights, bool) {
	e := m.t.index[page]
	if e == nil {
		return 0, 0, false
	}
	return e.val.frame, e.val.rights, true
}

// Delegate maps npages pages from srcPage in this space to dstPage in
// dst, with rights reduced by mask. Partial overlap with existing
// mappings in dst fails without side effects.
func (m *MemSpace) Delegate(srcPage uint32, dst *MemSpace, dstPage uint32, npages int, mask Rights) error {
	if m.t.closed || dst.t.closed {
		return ErrSpaceClosed
	}
	for i := 0; i < npages; i++ {
		if m.t.index[srcPage+uint32(i)] == nil {
			return fmt.Errorf("cap: source page %#x not mapped in %s", srcPage+uint32(i), m.name)
		}
		if dst.t.index[dstPage+uint32(i)] != nil {
			return fmt.Errorf("cap: destination page %#x already mapped in %s", dstPage+uint32(i), dst.name)
		}
	}
	ents := dst.t.alloc(dstPage, npages)
	for i := range ents {
		src := m.t.index[srcPage+uint32(i)]
		ents[i].val = mapping{frame: src.val.frame, rights: src.val.rights & mask}
		dst.t.add(&ents[i], src)
	}
	dst.Version++
	return nil
}

// Revoke withdraws all mappings delegated from [page, page+npages), and
// the mappings themselves if self is set. Returns pages removed.
func (m *MemSpace) Revoke(page uint32, npages int, self bool) int {
	removed := m.t.revokeRange(page, npages, self)
	if removed > 0 {
		m.Version++
	}
	return removed
}

// Destroy revokes every mapping delegated from this space, clears it,
// and refuses later mappings into it.
func (m *MemSpace) Destroy() { m.t.destroy() }

// IOSpace is a protection domain's I/O permission space: the set of
// x86 ports the domain may access, with delegation tracking (the
// kernel's analogue of the I/O permission bitmap).
type IOSpace struct {
	name string
	t    tree[uint16, struct{}]
}

// NewIOSpace creates an empty I/O space.
func NewIOSpace(name string) *IOSpace { return &IOSpace{name: name} }

// Name returns the space's debugging name.
func (s *IOSpace) Name() string { return s.name }

// Len returns the number of permitted ports.
func (s *IOSpace) Len() int { return len(s.t.index) }

// Allowed reports whether the domain may access port.
func (s *IOSpace) Allowed(port uint16) bool { return s.t.index[port] != nil }

// InsertRoot grants ports [lo, hi] as root entries. A destroyed space
// grants nothing.
func (s *IOSpace) InsertRoot(lo, hi uint16) {
	if !s.t.closed {
		s.grant(nil, lo, hi)
	}
}

// Delegate grants dst access to ports [lo, hi], which this space must
// hold. Ports dst already holds keep their existing grant.
func (s *IOSpace) Delegate(dst *IOSpace, lo, hi uint16) error {
	if s.t.closed || dst.t.closed {
		return ErrSpaceClosed
	}
	for p := uint32(lo); p <= uint32(hi); p++ {
		if s.t.index[uint16(p)] == nil {
			return fmt.Errorf("cap: port %#x not held by %s", p, s.name)
		}
	}
	dst.grant(s, lo, hi)
	return nil
}

// grant adds the ports of [lo, hi] that s lacks, delegated from the
// same ports of src, or as roots if src is nil.
func (s *IOSpace) grant(src *IOSpace, lo, hi uint16) {
	ents := s.t.alloc(lo, int(hi)-int(lo)+1)
	for i := range ents {
		e := &ents[i]
		if s.t.index[e.key] != nil {
			continue
		}
		var parent *entry[uint16, struct{}]
		if src != nil {
			parent = src.t.index[e.key]
		}
		s.t.add(e, parent)
	}
}

// Revoke withdraws delegations of [lo, hi]; self removes this space's
// own access too.
func (s *IOSpace) Revoke(lo, hi uint16, self bool) int {
	return s.t.revokeRange(lo, int(hi)-int(lo)+1, self)
}

// Destroy revokes every port grant delegated from this space, clears
// it, and refuses later grants into it.
func (s *IOSpace) Destroy() { s.t.destroy() }
