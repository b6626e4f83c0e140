package cap

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// FuzzMappingDB drives capability, memory and I/O spaces with a decoded
// operation sequence and checks every step against refDB, a flat
// slice-based reference model of the mapping database. After each
// operation the live entries, Len, ordered walks and operation results
// must match the model, and the trees themselves must be well formed:
// no delegated entry holds more rights than its parent and no live
// entry has a dead ancestor. A destroyed space is empty and refuses
// delegation.
func FuzzMappingDB(f *testing.F) {
	f.Add([]byte{
		0, 0, 1, 0, 0, 0xff, // cap insert s0:1, object 0, all rights
		1, 0, 1, 1, 2, 0x1b, // cap delegate s0:1 -> s1:2, mask rw-cp
		1, 1, 2, 2, 3, 0x05, // cap delegate s1:2 -> s2:3
		2, 0, 1, 0, 0, 0, // cap revoke s0:1, keep self
		1, 0, 1, 2, 3, 0x01, // the kept root delegates again
		3, 0, 1, 0, 0, 0, // cap remove s0:1: s2:3 survives as a root
		4, 2, 0, 0, 0, 0, // cap destroy s2
		1, 2, 3, 0, 4, 0xff, // delegation out of a destroyed space
		5, 0, 2, 0x40, 3, 0x07, // mem insert s0 pages 2-4
		6, 0, 2, 1, 6, 0x0e, // mem delegate s0:2-3 -> s1:6-7, 2 pages, mask rw
		6, 1, 6, 2, 0, 0x06, // mem delegate s1:6-7 -> s2:0-1
		7, 0, 3, 1, 1, 0, // mem revoke s0:3 with self
		8, 1, 0, 0, 0, 0, // mem destroy s1
		6, 0, 2, 1, 0, 0x05, // mem delegate into destroyed s1
		9, 0, 0, 7, 0, 0, // io insert s0 ports 0-3
		10, 0, 1, 1, 2, 0, // io delegate s0:1-3 -> s1
		10, 1, 2, 2, 0, 0, // io delegate s1:2 -> s2
		12, 1, 0, 0, 0, 0, // io destroy s1
		10, 0, 0, 1, 0, 0, // io delegate into destroyed s1
		11, 0, 0, 3, 1, 0, // io revoke s0:0-3 with self
	})
	// Random delegation trees over the three capability spaces: rights
	// must shrink along every chain, and revoking what the root
	// delegated must leave the root itself intact and able to delegate.
	rng := rand.New(rand.NewSource(42))
	for seed := 0; seed < 16; seed++ {
		f.Add(treeSeed(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHarness()
		for ops, p := 0, data; len(p) >= 6; ops, p = ops+1, p[6:] {
			h.step(t, ops, p[:6])
			h.check(t, ops, p[5])
		}
	})
}

// treeSeed encodes a full-rights root capability in slot 0, up to 23
// delegations each from an earlier slot into the next free (space,
// selector) slot with a random mask, then Revoke(root, self=false) and
// a delegation from the root again.
func treeSeed(rng *rand.Rand) []byte {
	slot := func(s int) (byte, byte) { return byte(s / 8), byte(s % 8) }
	out := []byte{0, 0, 0, 0, 0, byte(RightsAll)}
	n := 1 + rng.Intn(23)
	for i := 1; i <= n; i++ {
		ss, sk := slot(rng.Intn(i))
		ds, dk := slot(i)
		out = append(out, 1, ss, sk, ds, dk, byte(rng.Intn(int(RightsAll)+1)))
	}
	out = append(out, 2, 0, 0, 0, 0, 0)
	ds, dk := slot(1)
	return append(out, 1, 0, 0, ds, dk, byte(RightRead))
}

// Object indexes used as capability values; each has its own type.
var fuzzObjs = [3]*fakeObj{{t: ObjPD}, {t: ObjPortal}, {t: ObjSemaphore}}

const (
	kindCap = iota
	kindMem
	kindIO
	nSpaces = 3
	nKeys   = 16 // keys 0..7 are addressed, ranges reach up to 10
)

// ref is one record of the reference model. Records are never deleted:
// revocation clears live, and parent indexes refs (-1 for a root).
type ref struct {
	kind, space int
	key         uint32
	obj         int
	frame       uint64
	rights      Rights
	parent      int
	live        bool
}

// refDB is the reference mapping database: a flat record slice with
// linear scans, obviously correct rather than fast.
type refDB struct {
	refs    []ref
	closed  [3][nSpaces]bool
	changed [nSpaces]bool // memory spaces whose mappings changed this step
}

func (m *refDB) find(kind, sp int, key uint32) int {
	for i, r := range m.refs {
		if r.live && r.kind == kind && r.space == sp && r.key == key {
			return i
		}
	}
	return -1
}

func (m *refDB) add(r ref) {
	r.live = true
	m.refs = append(m.refs, r)
	if r.kind == kindMem {
		m.changed[r.space] = true
	}
}

func (m *refDB) kill(i int) {
	m.refs[i].live = false
	if m.refs[i].kind == kindMem {
		m.changed[m.refs[i].space] = true
	}
}

// revoke kills every live record delegated from i, transitively, and
// i itself if self is set.
func (m *refDB) revoke(i int, self bool) int {
	n := 0
	for j := range m.refs {
		if m.refs[j].live && m.refs[j].parent == i {
			n += m.revoke(j, true)
		}
	}
	if self {
		m.kill(i)
		n++
	}
	return n
}

func (m *refDB) destroy(kind, sp int) {
	for j, r := range m.refs {
		if r.live && r.kind == kind && r.space == sp {
			m.revoke(j, true)
		}
	}
	m.closed[kind][sp] = true
}

// harness pairs three spaces of each kind with the model.
type harness struct {
	caps [nSpaces]*Space
	mems [nSpaces]*MemSpace
	ios  [nSpaces]*IOSpace
	m    refDB
	vers [nSpaces]uint64
}

func newHarness() *harness {
	h := &harness{}
	for i := range h.caps {
		h.caps[i], h.mems[i], h.ios[i] = NewSpace("c"), NewMemSpace("m"), NewIOSpace("i")
	}
	return h
}

// errOther stands for any error but a sentinel the model predicts.
var errOther = errors.New("some other error")

func sameErr(got, want error) bool {
	if want == errOther {
		return got != nil && !errors.Is(got, ErrSpaceClosed)
	}
	return got == want
}

// step decodes op = [code, a, b, c, d, e] and applies it to both the
// spaces and the model.
func (h *harness) step(t *testing.T, ops int, op []byte) {
	code, a, b, c, d, e := op[0]%13, int(op[1])%nSpaces, uint32(op[2]%8), int(op[3])%nSpaces, op[4], op[5]
	m := &h.m
	m.changed = [nSpaces]bool{}
	for i, s := range h.mems {
		h.vers[i] = s.Version
	}
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("op %d %v: %s = %v, model %v", ops, op, what, got, want)
	}
	switch code {
	case 0: // cap insert: space a, selector b, object c, rights e
		want := error(nil)
		switch {
		case m.closed[kindCap][a]:
			want = ErrSpaceClosed
		case m.find(kindCap, a, b) >= 0:
			want = ErrOccupied
		default:
			m.add(ref{kind: kindCap, space: a, key: b, obj: c, rights: Rights(e) & RightsAll, parent: -1})
		}
		if got := h.caps[a].Insert(Selector(b), fuzzObjs[c], Rights(e)&RightsAll); got != want {
			fail("Insert", got, want)
		}
	case 1: // cap delegate a:b -> c:d with mask e
		dk := uint32(d % 8)
		src := m.find(kindCap, a, b)
		want := error(nil)
		switch {
		case m.closed[kindCap][a] || m.closed[kindCap][c]:
			want = ErrSpaceClosed
		case src < 0:
			want = ErrEmptySlot
		case m.find(kindCap, c, dk) >= 0:
			want = ErrOccupied
		default:
			r := m.refs[src]
			m.add(ref{kind: kindCap, space: c, key: dk, obj: r.obj, rights: r.rights & Rights(e), parent: src})
		}
		if got := h.caps[a].Delegate(Selector(b), h.caps[c], Selector(dk), Rights(e)); got != want {
			fail("Delegate", got, want)
		}
	case 2: // cap revoke a:b, self if c is odd
		want, wantErr := 0, ErrEmptySlot
		if i := m.find(kindCap, a, b); i >= 0 {
			want, wantErr = m.revoke(i, c&1 == 1), nil
		}
		got, err := h.caps[a].Revoke(Selector(b), c&1 == 1)
		if got != want || err != wantErr {
			fail("Revoke", []any{got, err}, []any{want, wantErr})
		}
	case 3: // cap remove a:b
		want := ErrEmptySlot
		if i := m.find(kindCap, a, b); i >= 0 {
			for j := range m.refs {
				if m.refs[j].parent == i {
					m.refs[j].parent = -1
				}
			}
			m.kill(i)
			want = nil
		}
		if got := h.caps[a].Remove(Selector(b)); got != want {
			fail("Remove", got, want)
		}
	case 4:
		m.destroy(kindCap, a)
		if err := h.caps[a].Destroy(); err != nil {
			fail("Destroy", err, nil)
		}
	case 5: // mem insert: space a, pages b.. (d%4 of them), frames op[3].., rights e
		n := int(d % 4)
		want := error(nil)
		if m.closed[kindMem][a] {
			want = ErrSpaceClosed
		}
		for i := 0; i < n && want == nil; i++ {
			if m.find(kindMem, a, b+uint32(i)) >= 0 {
				want = errOther
			}
		}
		for i := 0; i < n && want == nil; i++ {
			m.add(ref{kind: kindMem, space: a, key: b + uint32(i), frame: uint64(op[3]) + uint64(i), rights: Rights(e), parent: -1})
		}
		if got := h.mems[a].InsertRoot(b, uint64(op[3]), n, Rights(e)); !sameErr(got, want) {
			fail("InsertRoot", got, want)
		}
	case 6: // mem delegate a:b.. -> c:d.., e%4 pages, mask e>>2
		n, dp, mask := int(e%4), uint32(d%8), Rights(e>>2)
		want := error(nil)
		if m.closed[kindMem][a] || m.closed[kindMem][c] {
			want = ErrSpaceClosed
		}
		for i := 0; i < n && want == nil; i++ {
			if m.find(kindMem, a, b+uint32(i)) < 0 || m.find(kindMem, c, dp+uint32(i)) >= 0 {
				want = errOther
			}
		}
		for i := 0; i < n && want == nil; i++ {
			src := m.find(kindMem, a, b+uint32(i))
			r := m.refs[src]
			m.add(ref{kind: kindMem, space: c, key: dp + uint32(i), frame: r.frame, rights: r.rights & mask, parent: src})
		}
		if got := h.mems[a].Delegate(b, h.mems[c], dp, n, mask); !sameErr(got, want) {
			fail("MemSpace.Delegate", got, want)
		}
	case 7: // mem revoke a:b.., c%4 pages, self if d is odd
		want := 0
		for i := uint32(0); i < uint32(op[3]%4); i++ {
			if j := m.find(kindMem, a, b+i); j >= 0 {
				want += m.revoke(j, d&1 == 1)
			}
		}
		if got := h.mems[a].Revoke(b, int(op[3]%4), d&1 == 1); got != want {
			fail("MemSpace.Revoke", got, want)
		}
	case 8:
		m.destroy(kindMem, a)
		h.mems[a].Destroy()
	case 9: // io insert: space a, ports b..b+c%4
		lo, hi := b, b+uint32(op[3]%4)
		for p := lo; p <= hi && !m.closed[kindIO][a]; p++ {
			if m.find(kindIO, a, p) < 0 {
				m.add(ref{kind: kindIO, space: a, key: p, parent: -1})
			}
		}
		h.ios[a].InsertRoot(uint16(lo), uint16(hi))
	case 10: // io delegate a -> c, ports b..b+d%4
		lo, hi := b, b+uint32(d%4)
		want := error(nil)
		if m.closed[kindIO][a] || m.closed[kindIO][c] {
			want = ErrSpaceClosed
		}
		for p := lo; p <= hi && want == nil; p++ {
			if m.find(kindIO, a, p) < 0 {
				want = errOther
			}
		}
		for p := lo; p <= hi && want == nil; p++ {
			if m.find(kindIO, c, p) < 0 {
				m.add(ref{kind: kindIO, space: c, key: p, parent: m.find(kindIO, a, p)})
			}
		}
		if got := h.ios[a].Delegate(h.ios[c], uint16(lo), uint16(hi)); !sameErr(got, want) {
			fail("IOSpace.Delegate", got, want)
		}
	case 11: // io revoke a, ports b..b+c%4, self if d is odd
		lo, hi := b, b+uint32(op[3]%4)
		want := 0
		for p := lo; p <= hi; p++ {
			if j := m.find(kindIO, a, p); j >= 0 {
				want += m.revoke(j, d&1 == 1)
			}
		}
		if got := h.ios[a].Revoke(uint16(lo), uint16(hi), d&1 == 1); got != want {
			fail("IOSpace.Revoke", got, want)
		}
	case 12:
		m.destroy(kindIO, a)
		h.ios[a].Destroy()
	}
	for i, s := range h.mems {
		if m.changed[i] && s.Version == h.vers[i] {
			fail("mem space Version bumped", false, true)
		}
	}
}

// check compares every space with the model and checks the trees'
// structure. need is the rights mask LookupObj is probed with.
func (h *harness) check(t *testing.T, ops int, need byte) {
	m := &h.m
	for sp := 0; sp < nSpaces; sp++ {
		var live [3]int
		var sels []Selector
		for _, r := range m.refs {
			if r.live && r.space == sp {
				live[r.kind]++
			}
		}
		for k := uint32(0); k < nKeys; k++ {
			i := m.find(kindCap, sp, k)
			c, err := h.caps[sp].Lookup(Selector(k))
			if (i >= 0) != (err == nil) || i >= 0 && (c.Obj != fuzzObjs[m.refs[i].obj] || c.Rights != m.refs[i].rights) {
				t.Fatalf("op %d: cap space %d sel %d = %+v, %v; model %d", ops, sp, k, c, err, i)
			}
			if i >= 0 {
				sels = append(sels, Selector(k))
			}
			i = m.find(kindMem, sp, k)
			frame, rights, ok := h.mems[sp].Translate(k)
			if (i >= 0) != ok || ok && (frame != m.refs[i].frame || rights != m.refs[i].rights) {
				t.Fatalf("op %d: mem space %d page %d = %d, %v, %v; model %d", ops, sp, k, frame, rights, ok, i)
			}
			if i, ok := m.find(kindIO, sp, k), h.ios[sp].Allowed(uint16(k)); (i >= 0) != ok {
				t.Fatalf("op %d: io space %d port %d allowed = %v; model %d", ops, sp, k, ok, i)
			}
		}
		if got := [3]int{h.caps[sp].Len(), h.mems[sp].Len(), h.ios[sp].Len()}; got != live {
			t.Fatalf("op %d: space %d Len (cap, mem, io) = %v, model %v", ops, sp, got, live)
		}
		if got := h.caps[sp].Selectors(); !slices.Equal(got, sels) {
			t.Fatalf("op %d: space %d Selectors = %v, model %v", ops, sp, got, sels)
		}
		for o, obj := range fuzzObjs {
			h.checkLookupObj(t, ops, sp, o, obj, Rights(need)&RightsAll)
		}
	}
	for sp := 0; sp < nSpaces; sp++ {
		checkTree(t, ops, &h.caps[sp].t, func(c Capability) Rights { return c.Rights })
		checkTree(t, ops, &h.mems[sp].t, func(p mapping) Rights { return p.rights })
		checkTree(t, ops, &h.ios[sp].t, func(struct{}) Rights { return 0 })
	}
}

// checkLookupObj compares the reverse lookups with a scan of the model
// in ascending selector order.
func (h *harness) checkLookupObj(t *testing.T, ops, sp, o int, obj *fakeObj, need Rights) {
	m := &h.m
	wantSel, wantOK := Selector(0), false
	var wantCap Capability
	wantErr := ErrEmptySlot
	if m.closed[kindCap][sp] {
		wantErr = ErrSpaceClosed
	}
	for k := uint32(0); k < nKeys && !m.closed[kindCap][sp]; k++ {
		i := m.find(kindCap, sp, k)
		if i < 0 || m.refs[i].obj != o {
			continue
		}
		if !wantOK {
			wantSel, wantOK = Selector(k), true
		}
		if wantErr != nil {
			wantErr = ErrNoRights
			if m.refs[i].rights&need == need {
				wantCap, wantErr = Capability{Obj: obj, Type: obj.t, Rights: m.refs[i].rights}, nil
			}
		}
	}
	if sel, ok := h.caps[sp].SelectorOf(obj); sel != wantSel || ok != wantOK {
		t.Fatalf("op %d: space %d SelectorOf(obj %d) = %d, %v; model %d, %v", ops, sp, o, sel, ok, wantSel, wantOK)
	}
	if c, err := h.caps[sp].LookupObj(obj, obj.t, need); c != wantCap || err != wantErr {
		t.Fatalf("op %d: space %d LookupObj(obj %d, %v) = %+v, %v; model %+v, %v", ops, sp, o, need, c, err, wantCap, wantErr)
	}
}

// checkTree checks one tree's internal invariants: order is sorted with
// one entry per key, dead entries are counted and unindexed, live ones
// are indexed, and every live entry's ancestors are live, list it as a
// child, and hold at least its rights.
func checkTree[K key, V any](t *testing.T, ops int, tr *tree[K, V], rights func(V) Rights) {
	t.Helper()
	dead := 0
	for i, e := range tr.order {
		if i > 0 && tr.order[i-1].key >= e.key {
			t.Fatalf("op %d: order not strictly ascending at %d", ops, i)
		}
		if e.dead {
			dead++
			if tr.index[e.key] == e {
				t.Fatalf("op %d: dead entry %d still indexed", ops, e.key)
			}
			continue
		}
		if tr.index[e.key] != e || e.tree != tr {
			t.Fatalf("op %d: live entry %d not indexed in its tree", ops, e.key)
		}
		for _, c := range e.children {
			if c.parent != e || c.dead {
				t.Fatalf("op %d: entry %d lists a child that is dead or not its own", ops, e.key)
			}
		}
		for c, p, depth := e, e.parent, 0; p != nil; c, p, depth = p, p.parent, depth+1 {
			if p.dead || depth > 3*nSpaces*nKeys {
				t.Fatalf("op %d: entry %d has a revoked ancestor or a cycle", ops, e.key)
			}
			if !slices.Contains(p.children, c) {
				t.Fatalf("op %d: entry %d is missing from its parent's children", ops, c.key)
			}
			if rights(c.val)&^rights(p.val) != 0 {
				t.Fatalf("op %d: entry %d has rights %v beyond its parent's %v", ops, c.key, rights(c.val), rights(p.val))
			}
		}
	}
	if dead != tr.dead || len(tr.index) != len(tr.order)-dead {
		t.Fatalf("op %d: %d dead and %d indexed of %d ordered; tree counts %d dead", ops, dead, len(tr.index), len(tr.order), tr.dead)
	}
}
