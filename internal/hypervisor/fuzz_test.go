package hypervisor

import (
	"errors"
	"fmt"
	"testing"

	"nova/internal/cap"
	"nova/internal/hw"
)

// FuzzHypercalls drives random hypercall sequences from a hostile,
// non-root PD and the domains it creates. No sequence may panic, every
// hypercall from a VM domain must fail with ErrVMNoHypercalls, and once
// the root destroys the hostile PD — and with it, recursively, every
// domain the sequence created — the live PD and EC counts are back at
// their boot values and every destroyed PD's spaces are empty.
//
// Each op is four bytes: the hypercall, the acting PD, a target (PD,
// EC, page or port, by hypercall) and a selector or count.
func FuzzHypercalls(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 1, 1, 2, 0, 1, 0, 3, 7, 0, 1, 4})
	f.Add([]byte{4, 0, 0, 5, 9, 0, 0, 5, 6, 0, 1, 5, 9, 1, 0, 5, 10, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 2, 1, 0, 2, 6, 3, 0, 0, 6, 5, 0, 0, 7, 8, 0, 2, 0x20, 10, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 3, 7, 0, 2, 4, 2, 0, 2, 8, 6, 0, 2, 0, 10, 1, 0, 0, 9, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0x11, 9, 1, 0, 0, 0, 1, 0, 2, 10, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		k := New(hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 2 << 20}), Config{})
		bootPDs, bootECs := liveObjects(k)
		hSel := k.Root.Caps.AllocSel()
		h, err := k.CreatePD(k.Root, hSel, "hostile", false)
		if err != nil {
			t.Fatal(err)
		}
		// The hostile PD holds 16 pages, 256 ports and control over
		// itself at selector 0.
		if err := errors.Join(k.DelegateMem(k.Root, 0x100, h, 0, 16, cap.RightsAll),
			k.DelegateIO(k.Root, h, 0x100, 0x1ff),
			k.DelegateCap(k.Root, hSel, h, 0, cap.RightsAll)); err != nil {
			t.Fatal(err)
		}
		pds, ecs := []*PD{k.Root, h}, []*EC(nil)
		for ; len(ops) >= 4; ops = ops[4:] {
			op, actor, tgt, n := ops[0]%11, pds[1+int(ops[1])%(len(pds)-1)], int(ops[2]), ops[3]
			target, sel := pds[tgt%len(pds)], cap.Selector(n%16)
			var ec *EC
			if len(ecs) > 0 {
				ec = ecs[tgt%len(ecs)]
			}
			name := fmt.Sprintf("o%d", len(pds)+len(ecs))
			var err error
			switch op {
			case 0:
				var pd *PD
				if pd, err = k.CreatePD(actor, sel, name, n&0x10 != 0); err == nil {
					pds = append(pds, pd)
				}
			case 1, 2:
				var e *EC
				if op == 1 {
					e, err = k.CreateEC(actor, sel, target, int(n>>4)%3, name, nil)
				} else {
					e, err = k.CreateVCPU(actor, sel, target, int(n>>4)%3, name, PagingMode(n>>6&1), 0)
				}
				if err == nil {
					ecs = append(ecs, e)
				}
			case 3:
				if ec == nil {
					continue
				}
				_, err = k.CreateSC(actor, sel, ec, int(n), 1000)
			case 4:
				_, err = k.CreatePortal(actor, sel, name, uint64(n), MTD(n), func(m *UTCB) error {
					if n&0x20 != 0 {
						return errors.New("handler crashed")
					}
					return nil
				})
			case 5:
				_, err = k.CreateSemaphore(actor, sel, name, int64(n))
			case 6:
				err = k.DelegateCap(actor, sel, target, cap.Selector(tgt%16), cap.Rights(n))
			case 7:
				err = k.DelegateMem(actor, uint32(tgt%20), target, uint32(n%20), int(n>>5), cap.Rights(n))
			case 8:
				err = k.DelegateIO(actor, target, uint16(0xf0+tgt), uint16(0xf0+tgt)+uint16(n))
			case 9:
				err = k.Call(actor, sel, &UTCB{Words: make([]uint64, n%4)})
			case 10:
				err = k.DestroyPD(actor, target)
			}
			if actor.IsVM && err != ErrVMNoHypercalls {
				t.Fatalf("op %d from VM %s: %v, want ErrVMNoHypercalls", op, actor.Name, err)
			}
		}
		if err := k.DestroyPD(k.Root, h); err != nil {
			t.Fatal(err)
		}
		if p, e := liveObjects(k); p != bootPDs || e != bootECs {
			t.Fatalf("after destroying the hostile PD: %d PDs, %d ECs live; at boot %d, %d", p, e, bootPDs, bootECs)
		}
		for _, pd := range pds[1:] {
			if !pd.Dead() || pd.Caps.Len() != 0 || pd.Mem.Len() != 0 || pd.IO.Len() != 0 {
				t.Fatalf("%s: dead %v, %d caps, %d pages, %d ports", pd.Name, pd.Dead(), pd.Caps.Len(), pd.Mem.Len(), pd.IO.Len())
			}
		}
	})
}
