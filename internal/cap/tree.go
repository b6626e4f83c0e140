package cap

import (
	"cmp"
	"slices"
)

// key indexes a space: a selector, a page number or an I/O port.
type key interface{ ~uint16 | ~uint32 }

// entry is one record of the mapping database (§6): a value held by one
// space under one key, the entry it was delegated from, and the entries
// delegated from it, in delegation order. Capabilities, page mappings
// and port grants are all entries; only the value type differs.
type entry[K key, V any] struct {
	key      K
	dead     bool
	val      V
	tree     *tree[K, V]
	parent   *entry[K, V]
	children []*entry[K, V] // nil until the first delegation
}

// tree is one space's part of the mapping database. The index answers
// point lookups; order holds the same entries sorted by key, plus dead
// ones not yet compacted, for every walk that must be deterministic.
// Delegation links entries across trees of the same type, so a revoke
// reaches every space the entry was transitively delegated to.
type tree[K key, V any] struct {
	index  map[K]*entry[K, V]
	order  []*entry[K, V]
	dead   int     // dead entries still in order
	closed bool    // destroyed: refuses insertion and delegation
	bump   *uint64 // if set, incremented for each entry removed
}

// alloc returns n unlinked entries for keys lo, lo+1, ... in a single
// allocation, and makes room for them in t; the caller sets each value
// and adds the ones it keeps.
func (t *tree[K, V]) alloc(lo K, n int) []entry[K, V] {
	if n <= 0 {
		return nil
	}
	if t.index == nil {
		t.index = make(map[K]*entry[K, V], n)
	}
	t.order = slices.Grow(t.order, n)
	ents := make([]entry[K, V], n)
	for i := range ents {
		ents[i].key = lo + K(i)
	}
	return ents
}

// add links e, allocated by t.alloc, into t, delegated from parent (nil
// for a root entry). The caller has checked that t is open and e.key is
// free.
func (t *tree[K, V]) add(e *entry[K, V], parent *entry[K, V]) {
	e.tree, e.parent = t, parent
	if parent != nil {
		parent.children = append(parent.children, e)
	}
	t.index[e.key] = e
	if 2*t.dead > len(t.order) {
		t.order = slices.DeleteFunc(t.order, func(x *entry[K, V]) bool { return x.dead })
		t.dead = 0
	}
	if n := len(t.order); n == 0 || t.order[n-1].key < e.key {
		t.order = append(t.order, e)
		return
	}
	i, found := slices.BinarySearchFunc(t.order, e.key, func(x *entry[K, V], k K) int { return cmp.Compare(x.key, k) })
	if found { // a dead entry under the same key: take its slot
		t.order[i] = e
		t.dead--
		return
	}
	t.order = slices.Insert(t.order, i, e)
}

// first calls fn on each live entry in ascending key order and returns
// the first entry for which fn reports true, or nil. fn may remove
// entries but must not add any.
func (t *tree[K, V]) first(fn func(*entry[K, V]) bool) *entry[K, V] {
	for _, e := range t.order {
		if !e.dead && fn(e) {
			return e
		}
	}
	return nil
}

// destroy revokes every entry of t, lowest key first, and closes t. It
// returns how many revocations it started.
func (t *tree[K, V]) destroy() int {
	n := 0
	t.first(func(e *entry[K, V]) bool {
		e.revoke(true)
		n++
		return false
	})
	t.order, t.dead, t.closed = nil, 0, true
	return n
}

// revokeRange revokes from each entry t holds in [lo, lo+n) and returns
// how many entries were removed.
func (t *tree[K, V]) revokeRange(lo K, n int, self bool) int {
	removed := 0
	for i := 0; i < n; i++ {
		if e := t.index[lo+K(i)]; e != nil {
			removed += e.revoke(self)
		}
	}
	return removed
}

// revoke removes every entry delegated from e, depth first with
// siblings in delegation order, and e itself if self is set. It returns
// how many entries were removed.
func (e *entry[K, V]) revoke(self bool) int {
	n := 0
	for _, c := range e.children {
		c.parent = nil // e.children is dropped whole below
		n += c.revoke(true)
	}
	e.children = nil
	if self {
		e.drop()
		n++
	}
	return n
}

// remove drops e alone; what it delegated survives as root entries.
func (e *entry[K, V]) remove() {
	for _, c := range e.children {
		c.parent = nil
	}
	e.children = nil
	e.drop()
}

// drop unlinks e from its parent and its tree, leaving it in order as
// a dead entry until the next compaction.
func (e *entry[K, V]) drop() {
	if p := e.parent; p != nil {
		p.children = slices.DeleteFunc(p.children, func(c *entry[K, V]) bool { return c == e })
	}
	t := e.tree
	e.dead = true
	delete(t.index, e.key)
	t.dead++
	if t.bump != nil {
		*t.bump++
	}
}
