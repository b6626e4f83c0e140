package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"nova/internal/obs"
	"nova/internal/prof"
	"nova/internal/x86"
)

func profReport(f *obs.File, top int) {
	run, d := &f.Run, f.Prof
	fmt.Printf("profile: %s @ %d MHz, %d CPU(s), period %d cycles, buffer capacity %d\n",
		run.Model, run.FreqMHz, run.NumCPUs, d.Meta.Period, d.Meta.Capacity)
	for cpu, samples := range d.Samples {
		line := fmt.Sprintf("cpu%d: %d samples", cpu, len(samples))
		if over := d.Overwritten[cpu]; over > 0 {
			line += fmt.Sprintf(", %d overwritten (raise the buffer capacity)", over)
		}
		fmt.Println(line)
	}

	// Time decomposition by mode, in grid points (= Period cycles each).
	var byMode [prof.NumModes]uint64
	var total uint64
	for _, per := range d.Samples {
		for _, s := range per {
			if int(s.Mode) < prof.NumModes {
				byMode[s.Mode] += s.Weight
				total += s.Weight
			}
		}
	}
	if total > 0 {
		fmt.Println("\nsampled time by mode:")
		for mode, w := range byMode {
			if w > 0 {
				fmt.Printf("  %-10s %8d samples  %5.1f%%\n",
					prof.Mode(mode), w, 100*float64(w)/float64(total))
			}
		}
	}

	// Exact-cost attribution totals per event kind.
	var counts, cycles [prof.NumAttribKinds]uint64
	for _, a := range d.Attrib {
		if int(a.Kind) < prof.NumAttribKinds {
			counts[a.Kind] += a.Count
			cycles[a.Kind] += a.Cycles
		}
	}
	if counts[prof.AttribExit]+counts[prof.AttribVTLBFill]+counts[prof.AttribEmulate] > 0 {
		fmt.Println("\nattributed virtualization events:")
		for kind := range counts {
			if counts[kind] > 0 {
				fmt.Printf("  %-10s %8d events  %12d cycles\n",
					prof.AttribKind(kind), counts[kind], cycles[kind])
			}
		}
	}

	hot := d.Hot(top)
	if len(hot) == 0 {
		return
	}
	fmt.Println("\nhot addresses (sampled + attributed cycles):")
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "ADDR\tSAMPLES\tEXITS\tFILLS\tEMULS\tCYCLES\tFUSE\tCODE")
	var fuseWeight, codeWeight uint64
	for _, h := range hot {
		mark := fuseMark(d, h.Addr, h.Def32)
		if mark != "" {
			codeWeight += h.Samples
			if mark == "fuse" {
				fuseWeight += h.Samples
			}
		}
		fmt.Fprintf(w, "0x%08x\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			h.Addr, h.Samples, h.Exits, h.Fills, h.Emuls, h.TotalCycles(),
			mark, disasm(d, h.Addr, h.Def32))
	}
	w.Flush() //nolint:errcheck
	if codeWeight > 0 {
		fmt.Printf("\nfusibility: %.1f%% of the sampled weight at hot addresses with captured code\n"+
			"is superblock-fusible (see `fuse` rows); fusible runs of length >= 2 execute\n"+
			"as fused blocks, profiled or not\n",
			100*float64(fuseWeight)/float64(codeWeight))
	}
}

// fuseMark classifies a hot address for the superblock layer: "fuse"
// when the captured instruction is fusible (x86.InstFusible — it can
// sit inside a fused superblock), "-" when it forces single-stepping
// (memory operand, privileged, faulting, extra-cycle forms), and empty
// when the profile carries no code bytes for the site.
func fuseMark(d *prof.Data, addr uint32, def32 bool) string {
	for _, site := range d.Code {
		if site.Addr != addr || site.Def32 != def32 {
			continue
		}
		inst, err := x86.Decode(&x86.BytesFetcher{Data: site.Bytes}, site.Def32)
		if err != nil {
			return ""
		}
		if x86.InstFusible(inst) {
			return "fuse"
		}
		return "-"
	}
	return ""
}

// disasm renders the captured instruction bytes at a hot address, if
// the profile carries them.
func disasm(d *prof.Data, addr uint32, def32 bool) string {
	for _, site := range d.Code {
		if site.Addr != addr || site.Def32 != def32 {
			continue
		}
		inst, err := x86.Decode(&x86.BytesFetcher{Data: site.Bytes}, site.Def32)
		if err != nil {
			return fmt.Sprintf("db %02x...", site.Bytes[0])
		}
		return inst.String()
	}
	return ""
}

func profFolded(f *obs.File) {
	for _, line := range f.Prof.Folded() {
		fmt.Println(line)
	}
}

func profPprof(f *obs.File, out string) {
	w := os.Stdout
	if out != "" {
		file, err := os.Create(out)
		if err != nil {
			fail("%v", err)
		}
		defer file.Close()
		w = file
	}
	if err := f.Prof.WritePprof(w); err != nil {
		fail("write pprof: %v", err)
	}
	if out != "" {
		fmt.Printf("pprof: %s (open with `go tool pprof %s`)\n", out, out)
	}
}
