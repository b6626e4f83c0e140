package x86

import (
	"testing"
	"testing/quick"
)

// ptMem is a simple physical memory for walker tests.
type ptMem struct {
	b []byte
}

func (m *ptMem) ReadPhys32(pa uint64) (uint32, bool) {
	if pa+4 > uint64(len(m.b)) {
		return 0, false
	}
	return uint32(m.b[pa]) | uint32(m.b[pa+1])<<8 | uint32(m.b[pa+2])<<16 | uint32(m.b[pa+3])<<24, true
}

func (m *ptMem) WritePhys32(pa uint64, v uint32) bool {
	if pa+4 > uint64(len(m.b)) {
		return false
	}
	m.b[pa], m.b[pa+1], m.b[pa+2], m.b[pa+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return true
}

func (m *ptMem) put32(pa uint64, v uint32) { m.WritePhys32(pa, v) }

// buildPT maps va -> pa with flags in a 2-level table: PD at 0x1000,
// PT for va's directory at 0x2000.
func buildPT(m *ptMem, va, pa, pteFlags uint32) {
	m.put32(0x1000+uint64(va>>22)*4, 0x2000|PTEPresent|PTEWrite|PTEUser)
	m.put32(0x2000+uint64(va>>12&0x3ff)*4, pa&^0xfff|pteFlags)
}

func TestWalkGuestBasic(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	buildPT(m, 0x00403000, 0x7000, PTEPresent|PTEWrite)
	w, exc := WalkGuest(m, 0x1000, 0, 0x00403abc, false, true, false)
	if exc != nil {
		t.Fatalf("fault: %v", exc)
	}
	if w.PA != 0x7abc {
		t.Errorf("pa = %#x, want 0x7abc", w.PA)
	}
	if w.Large || !w.Writable || w.User {
		t.Errorf("attrs: %+v", w)
	}
	if w.Steps != 2 {
		t.Errorf("steps = %d, want 2", w.Steps)
	}
}

func TestWalkGuestNotPresent(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	// Empty PD.
	_, exc := WalkGuest(m, 0x1000, 0, 0x00403abc, false, true, false)
	if exc == nil {
		t.Fatal("no fault for unmapped address")
	}
	if exc.Vector != VecPF || exc.CR2 != 0x00403abc {
		t.Errorf("exc = %+v", exc)
	}
	if exc.Code&1 != 0 {
		t.Error("P bit set in error code for not-present fault")
	}
	// Present PD, empty PT.
	m.put32(0x1000+4, 0x2000|PTEPresent|PTEWrite)
	_, exc = WalkGuest(m, 0x1000, 0, 0x00403abc, false, true, false)
	if exc == nil {
		t.Fatal("no fault for not-present PTE")
	}
}

func TestWalkGuestWriteProtection(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	buildPT(m, 0x00403000, 0x7000, PTEPresent) // read-only
	// With WP: write faults with P=1 W=1 in the code.
	_, exc := WalkGuest(m, 0x1000, 0, 0x00403000, true, true, false)
	if exc == nil {
		t.Fatal("write to RO page did not fault under WP")
	}
	if exc.Code&3 != 3 {
		t.Errorf("error code = %#x, want P|W", exc.Code)
	}
	// Supervisor write without WP succeeds.
	if _, exc := WalkGuest(m, 0x1000, 0, 0x00403000, true, false, false); exc != nil {
		t.Errorf("write without WP faulted: %v", exc)
	}
	// Reads always fine.
	if _, exc := WalkGuest(m, 0x1000, 0, 0x00403000, false, true, false); exc != nil {
		t.Errorf("read faulted: %v", exc)
	}
}

func TestWalkGuestLargePage(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	// 4M PDE mapping 0x00800000 -> 0x00c00000.
	m.put32(0x1000+2*4, 0x00c00000|PTEPresent|PTEWrite|PTELarge)
	w, exc := WalkGuest(m, 0x1000, CR4PSE, 0x00923456, false, true, false)
	if exc != nil {
		t.Fatal(exc)
	}
	if !w.Large {
		t.Error("not large")
	}
	if w.PA != 0x00d23456 {
		t.Errorf("pa = %#x", w.PA)
	}
	if w.Steps != 1 {
		t.Errorf("steps = %d, want 1", w.Steps)
	}
	// Without CR4.PSE the PS bit is ignored and the PDE is treated as a
	// table pointer — which here points into garbage, so expect a
	// 2-level walk (not-present since "table" content is zero... the
	// table at 0x00c00000 is out of our 1MB memory -> malformed).
	_, exc = WalkGuest(m, 0x1000, 0, 0x00923456, false, true, false)
	if exc == nil {
		t.Error("PSE-disabled walk should fault here")
	}
}

func TestWalkGuestAccessedDirty(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	buildPT(m, 0x00403000, 0x7000, PTEPresent|PTEWrite)
	if _, exc := WalkGuest(m, 0x1000, 0, 0x00403000, true, true, true); exc != nil {
		t.Fatal(exc)
	}
	pde, _ := m.ReadPhys32(0x1000 + 4)
	pte, _ := m.ReadPhys32(0x2000 + 3*4)
	if pde&PTEAccessed == 0 {
		t.Error("PDE accessed bit not set")
	}
	if pte&PTEAccessed == 0 || pte&PTEDirty == 0 {
		t.Errorf("PTE A/D not set: %#x", pte)
	}
}

func TestWalkGuestGlobalBit(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	buildPT(m, 0x00403000, 0x7000, PTEPresent|PTEGlobal)
	w, exc := WalkGuest(m, 0x1000, CR4PGE, 0x00403000, false, true, false)
	if exc != nil {
		t.Fatal(exc)
	}
	if !w.Global {
		t.Error("global bit lost")
	}
}

func TestWalkGuestOffsetPreservedProperty(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<20)}
	buildPT(m, 0x00403000, 0x7000, PTEPresent|PTEWrite)
	f := func(off uint16) bool {
		va := 0x00403000 | uint32(off)&0xfff
		w, exc := WalkGuest(m, 0x1000, 0, va, false, true, false)
		return exc == nil && w.PA == 0x7000+uint64(va&0xfff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProbeGuestMatchesReadOnlyWalk checks the observers' probe against
// WalkGuest with write, wp and setAD false over random page tables
// (random PDE/PTE words, with and without CR4.PSE), and that it leaves
// memory untouched.
func TestProbeGuestMatchesReadOnlyWalk(t *testing.T) {
	m := &ptMem{b: make([]byte, 1<<16)}
	f := func(pdes, ptes [4]uint32, vas [8]uint32, pse bool) bool {
		clear(m.b)
		for i := range pdes {
			// PDEs 0-3 at 0x1000; their tables (if small) inside RAM.
			m.put32(0x1000+uint64(i)*4, pdes[i]&^0xfffff000|uint32(i+2)<<12)
			m.put32(uint64(i+2)<<12+uint64(ptes[i]>>22&0x3ff)*4, ptes[i])
		}
		before := append([]byte(nil), m.b...)
		cr4 := uint32(0)
		if pse {
			cr4 = CR4PSE
		}
		for j, va := range vas {
			va &= 0x00ffffff       // directories 0-3
			if i := j % 4; j < 4 { // hit the PTE written for directory i
				va = uint32(i)<<22 | ptes[i]>>22&0x3ff<<12 | va&0xfff
			}
			w, exc := WalkGuest(m, 0x1000, cr4, va, false, false, false)
			pa, ok := ProbeGuest(m, 0x1000, cr4, va)
			if ok != (exc == nil) || ok && pa != w.PA {
				return false
			}
		}
		return string(before) == string(m.b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
