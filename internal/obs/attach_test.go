package obs_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"nova/internal/guest"
	"nova/internal/hw"
	"nova/internal/hypervisor"
	"nova/internal/obs"
	"nova/internal/services"
	"nova/internal/stat"
	"nova/internal/vmm"
)

// portals returns the portals in pd's capability space.
func portals(t *testing.T, pd *hypervisor.PD) []*hypervisor.Portal {
	t.Helper()
	var out []*hypervisor.Portal
	for _, sel := range pd.Caps.Selectors() {
		c, err := pd.Caps.Lookup(sel)
		if err != nil {
			t.Fatal(err)
		}
		if pt, ok := c.Obj.(*hypervisor.Portal); ok {
			out = append(out, pt)
		}
	}
	return out
}

// TestIPCAttributionNestedCalls runs two VMs against the disk server
// with accounting attached. A VM's exits reach its VMM as portal calls
// by the VM; inside those exit handlers the VMM calls the disk server
// on its own behalf. The per-PD IPC series must tell the two apart:
// kernel_ipc_calls/words{pd="vmN"} count the exit portals' calls and
// MTD words, {pd="vmm-vmN"} the VMM's calls into the disk server and
// their message words — not the PD of the vCPU that is running.
func TestIPCAttributionNestedCalls(t *testing.T) {
	plat := hw.MustNewPlatform(hw.Config{Model: hw.BLM, RAMSize: 128 << 20})
	k := hypervisor.New(plat, hypervisor.Config{UseVPID: true})
	root := services.NewRootPM(k)
	ds, err := root.StartDiskServer()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Attach(k, 0, 0, stat.DefaultEpochLen, 0).Stat
	img := guest.MustBuild(guest.DiskChecksumKernel())
	var vms []*vmm.VMM
	var bases []uint32
	diskWords := map[string]*uint64{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("vm%d", i)
		base, err := root.AllocPages(name, 1024)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vmm.New(k, vmm.Config{Name: name, MemPages: 1024, BasePage: base, CPU: 0,
			Mode: hypervisor.ModeEPT, DiskServer: ds, BootDisk: plat.AHCI.Disk()})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(guest.Entry, img); err != nil {
			t.Fatal(err)
		}
		params := make([]byte, 12)
		for j, p := range []uint32{8, 3, uint32(10000 + i*5000)} { // 3 reads of 4 KiB
			binary.LittleEndian.PutUint32(params[j*4:], p)
		}
		if err := m.GuestWrite(guest.ParamBase, params); err != nil {
			t.Fatal(err)
		}
		st := &m.EC.VCPU.State
		st.Reset()
		st.EIP = guest.Entry
		if err := m.Start(10, 2_000_000); err != nil {
			t.Fatal(err)
		}
		// Count the words of the VMM's calls into the disk server.
		words := new(uint64)
		diskWords[m.PD.Name] = words
		for _, pt := range portals(t, m.PD) {
			if pt.PD == ds.PD {
				handle := pt.Handle
				pt.Handle = func(msg *hypervisor.UTCB) error {
					*words += uint64(len(msg.Words))
					return handle(msg)
				}
			}
		}
		vms, bases = append(vms, m), append(bases, base)
	}
	for done := 0; done < len(vms); {
		if k.Now() > 2_000_000_000 {
			t.Fatalf("%d of %d guests finished", done, len(vms))
		}
		k.Run(k.Now() + 2_000_000)
		done = 0
		for _, base := range bases {
			if plat.Mem.Read32(hw.PhysAddr(uint64(base)<<12+guest.MarkerAddr)) == guest.MarkerDone {
				done++
			}
		}
	}

	got := map[string]uint64{}
	for _, md := range reg.Snapshot(k.Now()).Metrics {
		got[md.Name] = md.Total
	}
	for _, m := range vms {
		var vmCalls, vmWords, vmmCalls uint64
		for _, pt := range portals(t, m.VM) { // the VM's exit portals
			vmCalls += pt.Calls
			vmWords += pt.Calls * uint64(pt.MTD.WordCount())
		}
		for _, pt := range portals(t, m.PD) {
			if pt.PD == ds.PD {
				vmmCalls += pt.Calls
			}
		}
		if vmCalls == 0 || vmmCalls == 0 {
			t.Fatalf("%s: %d exit calls, %d disk-server calls; the workload exercised no nesting", m.VM.Name, vmCalls, vmmCalls)
		}
		for _, c := range []struct {
			pd           string
			calls, words uint64
		}{
			{m.VM.Name, vmCalls, vmWords},
			{m.PD.Name, vmmCalls, *diskWords[m.PD.Name]},
		} {
			if n := got[stat.Name("kernel_ipc_calls", "pd", c.pd)]; n != c.calls {
				t.Errorf("kernel_ipc_calls{pd=%q} = %d, want %d", c.pd, n, c.calls)
			}
			if n := got[stat.Name("kernel_ipc_words", "pd", c.pd)]; n != c.words {
				t.Errorf("kernel_ipc_words{pd=%q} = %d, want %d", c.pd, n, c.words)
			}
		}
	}
}
