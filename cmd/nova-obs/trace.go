package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"nova/internal/obs"
	"nova/internal/trace"
)

// kindName resolves a kind through the trace's own name table, so the
// renderer keeps working on traces from other tracer versions.
func kindName(run *trace.Meta, k trace.Kind) string {
	if int(k) < len(run.KindNames) {
		return run.KindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

func exitName(run *trace.Meta, r uint64) string {
	if int(r) < len(run.ExitReasons) {
		return run.ExitReasons[r]
	}
	return fmt.Sprintf("reason-%d", r)
}

// detail renders one event's payload using the kind-specific argument
// meanings documented in the trace package.
func detail(run *trace.Meta, e trace.Event) string {
	switch e.Kind {
	case trace.KindVMExit:
		s := fmt.Sprintf("reason=%s eip=%#x ec=%d", exitName(run, e.A0), e.A1, e.A2)
		if e.A3 != 0 {
			s += fmt.Sprintf(" vector=%#x", e.A3)
		}
		return s
	case trace.KindVMResume:
		return fmt.Sprintf("reason=%s dur=%d ec=%d", exitName(run, e.A0), e.A1, e.A2)
	case trace.KindHypercall:
		return fmt.Sprintf("pd=%d", e.A0)
	case trace.KindIPCCall:
		return fmt.Sprintf("portal=%d words=%d cross-as=%d", e.A0, e.A1, e.A2)
	case trace.KindIPCReply:
		return fmt.Sprintf("portal=%d latency=%d cross-as=%d", e.A0, e.A1, e.A2)
	case trace.KindSchedDispatch:
		return fmt.Sprintf("ec=%d prio=%d wait=%d", e.A0, e.A1, e.A2)
	case trace.KindSemUp:
		return fmt.Sprintf("sem=%d woken=%d", e.A0, e.A1)
	case trace.KindSemDown:
		return fmt.Sprintf("sem=%d acquired=%d", e.A0, e.A1)
	case trace.KindRecall:
		return fmt.Sprintf("ec=%d", e.A0)
	case trace.KindInject:
		return fmt.Sprintf("vector=%#x ec=%d", e.A0, e.A1)
	case trace.KindHostIRQ:
		s := fmt.Sprintf("vector=%#x line=%d", e.A0, int64(e.A1))
		if e.A2 != ^uint64(0) {
			s += fmt.Sprintf(" preempted-ec=%d", e.A2)
		}
		return s
	case trace.KindVTLBFill:
		return fmt.Sprintf("va=%#x dur=%d ec=%d", e.A0, e.A1, e.A2)
	case trace.KindVTLBFlush:
		cause := fmt.Sprintf("cr%d", e.A0)
		if e.A0 == 0xff {
			cause = fmt.Sprintf("invlpg va=%#x", e.A2)
		}
		return fmt.Sprintf("cause=%s ec=%d", cause, e.A1)
	case trace.KindPIO:
		dir := "out"
		if e.A1 != 0 {
			dir = "in"
		}
		return fmt.Sprintf("port=%#x %s val=%#x size=%d", e.A0, dir, e.A2, e.A3)
	case trace.KindMMIO:
		dir := "write"
		if e.A1 != 0 {
			dir = "read"
		}
		return fmt.Sprintf("gpa=%#x %s val=%#x size=%d", e.A0, dir, e.A2, e.A3)
	case trace.KindEmulate:
		return fmt.Sprintf("eip=%#x", e.A0)
	case trace.KindBIOSCall:
		return fmt.Sprintf("int=%#x ah=%#x", e.A0, e.A1)
	case trace.KindDiskRequest, trace.KindDiskIssue:
		op := "read"
		if e.A0 == 2 {
			op = "write"
		}
		return fmt.Sprintf("op=%s lba=%d count=%d slot=%d", op, e.A1, e.A2, e.A3)
	case trace.KindDiskComplete:
		return fmt.Sprintf("slot=%d ok=%d", e.A0, e.A1)
	case trace.KindDiskDone:
		return fmt.Sprintf("cookie=%d ok=%d client=%d", e.A0, e.A1, e.A2)
	case trace.KindNetRX:
		return fmt.Sprintf("len=%d delivered=%d", e.A0, e.A1)
	default:
		return fmt.Sprintf("a0=%#x a1=%#x a2=%#x a3=%#x", e.A0, e.A1, e.A2, e.A3)
	}
}

func traceTimeline(f *obs.File, limit int) {
	run, d := &f.Run, f.Trace
	fmt.Printf("trace: %s @ %d MHz, %d CPU(s), ring capacity %d\n",
		run.Model, run.FreqMHz, run.NumCPUs, d.Capacity)
	for cpu, over := range d.Overwritten {
		if over > 0 {
			fmt.Printf("cpu%d: %d events overwritten (ring wrapped)\n", cpu, over)
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "CYCLES\tCPU\tSEQ\tEVENT\tDETAIL")
	for i, e := range d.Events() {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "...\t\t\t(%d more)\t\n", len(d.Events())-limit)
			break
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\n", e.Time, e.CPU, e.Seq, kindName(run, e.Kind), detail(run, e))
	}
	w.Flush() //nolint:errcheck
}

func traceAttrib(f *obs.File) {
	run, d := &f.Run, f.Trace
	warnTruncation("trace", d.Overwritten)
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', tabwriter.AlignRight)

	fmt.Println("VM-exit cost attribution (cycles):")
	fmt.Fprintln(w, "reason\tcount\ttotal\thardware\tvmm\tkernel\tavg\t")
	rows := trace.ExitBreakdown(run, d)
	var count, total, hardware, vmm, kernel uint64
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Reason, r.Count, r.Total, r.Hardware, r.VMM, r.Kernel, r.Total/r.Count)
		count += r.Count
		total += r.Total
		hardware += r.Hardware
		vmm += r.VMM
		kernel += r.Kernel
	}
	if count > 0 {
		fmt.Fprintf(w, "(all)\t%d\t%d\t%d\t%d\t%d\t%d\t\n", count, total, hardware, vmm, kernel, total/count)
	}
	w.Flush() //nolint:errcheck

	ipc := trace.ComputeIPCBreakdown(run, d)
	if ipc.SameCount+ipc.CrossCount > 0 {
		fmt.Println("\nIPC breakdown, one-way message transfer (Figure 8, cycles):")
		fmt.Fprintf(w, "entry+exit\t%d\t\n", ipc.EntryExit)
		fmt.Fprintf(w, "ipc path\t%d\t\n", ipc.IPCPath)
		fmt.Fprintf(w, "tlb effects\t%d\t\n", ipc.TLBEffects)
		fmt.Fprintf(w, "same-AS total\t%d\t(%d calls)\n", ipc.SameOneWay, ipc.SameCount)
		fmt.Fprintf(w, "cross-AS total\t%d\t(%d calls)\n", ipc.CrossOneWay, ipc.CrossCount)
		w.Flush() //nolint:errcheck
	}

	vtlb := trace.ComputeVTLBBreakdown(run, d)
	if vtlb.Fills > 0 {
		fmt.Println("\nvTLB miss breakdown (Figure 9, cycles):")
		fmt.Fprintf(w, "exit+resume\t%d\t\n", vtlb.ExitResume)
		fmt.Fprintf(w, "vmread x6\t%d\t\n", vtlb.VMReads)
		fmt.Fprintf(w, "vtlb fill\t%d\t\n", vtlb.Fill)
		fmt.Fprintf(w, "per miss\t%d\t(%d fills, avg %d)\n", vtlb.PerMiss, vtlb.Fills, vtlb.AvgFill)
		w.Flush() //nolint:errcheck
	}
}

func traceChrome(f *obs.File) {
	run, d := &f.Run, f.Trace
	warnTruncation("trace", d.Overwritten)
	us := func(c uint64) float64 { return micros(run, float64(c)) }
	var out []chromeEvent
	for _, e := range d.Events() {
		ce := chromeEvent{PID: 1, TID: int(e.CPU)}
		switch e.Kind {
		case trace.KindVMResume:
			// Render the whole exit-to-resume window as a span.
			ce.Name = "vmexit:" + exitName(run, e.A0)
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindIPCReply:
			ce.Name = "ipc"
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindVTLBFill:
			ce.Name = "vtlb-fill"
			ce.Ph = "X"
			ce.Ts = us(uint64(e.Time) - e.A1)
			ce.Dur = us(e.A1)
		case trace.KindVMExit:
			// The matching resume draws the span; skip the edge.
			continue
		default:
			ce.Name = kindName(run, e.Kind)
			ce.Ph = "i"
			ce.Ts = us(uint64(e.Time))
			ce.S = "t"
		}
		ce.Args = map[string]string{"detail": detail(run, e)}
		out = append(out, ce)
	}
	writeChrome(out)
}

func traceMetrics(f *obs.File) {
	warnTruncation("trace", f.Trace.Overwritten)
	writeJSON(f.Trace.Metrics)
}
