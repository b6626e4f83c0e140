package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"nova/internal/obs"
	"nova/internal/span"
	"nova/internal/trace"
)

// buildSpans reconstructs the span section's requests and their
// per-class report, warning first when a ring wrapped.
func buildSpans(f *obs.File) (*trace.Meta, *span.Data, []*span.Span, *span.Report) {
	d := f.Span
	warnTruncation("span", d.Overwritten)
	spans := span.BuildSpans(d.Events())
	return &f.Run, d, spans, span.BuildReport(d, spans, f.Run.FreqMHz)
}

func spanReport(f *obs.File, requests int) {
	run, d, spans, rep := buildSpans(f)
	fmt.Printf("spans: %s @ %d MHz, %d CPU(s), ring capacity %d\n",
		run.Model, run.FreqMHz, run.NumCPUs, d.Capacity)
	fmt.Printf("requests: %d opened, %d closed over the whole run\n\n", rep.Opened, rep.Closed)

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Println("virtual-time latency per request class (cycles; exact percentiles):")
	fmt.Fprintln(w, "class\tcount\topen\tfailed\tmin\tmean\tp50\tp99\tp999\tmax\t")
	for _, c := range rep.Classes {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			c.Class, c.Count, c.Open, c.Failed, c.Min, c.Mean, c.P50, c.P99, c.P999, c.Max)
	}
	w.Flush() //nolint:errcheck

	for _, c := range rep.Classes {
		if len(c.Segs) == 0 {
			continue
		}
		var total int64
		for _, s := range c.Segs {
			total += s.Total
		}
		fmt.Printf("\n%s critical path (%d requests):\n", c.Class, c.Count)
		for _, s := range c.Segs {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(s.Total) / float64(total)
			}
			fmt.Fprintf(w, "%s\t%d\tcycles\t%d\tavg\t%5.1f%%\t\n", s.Seg, s.Total, s.Avg, pct)
		}
		w.Flush() //nolint:errcheck
	}

	if requests > 0 {
		fmt.Printf("\nindividual requests (first %d):\n", requests)
		n := 0
		for _, s := range spans {
			if n >= requests {
				break
			}
			n++
			status := "open"
			if s.Closed {
				switch s.Status {
				case span.StatusOK:
					status = "ok"
				case span.StatusError:
					status = "error"
				case span.StatusNoIRQ:
					status = "ok-no-irq"
				default:
					status = fmt.Sprintf("status-%d", s.Status)
				}
			}
			fmt.Printf("#%d %s detail=%d cpu=%d open=%d", uint64(s.ID), s.Name, s.Detail, s.CPU, s.Open)
			if s.Closed {
				fmt.Printf(" close=%d latency=%d [%s]", s.End, s.Duration(), status)
			} else {
				fmt.Printf(" [%s]", status)
			}
			fmt.Println()
			var sum int64
			for _, p := range s.Path {
				fmt.Printf("    %-12s @%d  %d cycles (%.2f us)\n", p.Name, p.Start, p.Dur, micros(run, float64(uint64(p.Dur))))
				sum += p.Dur
			}
			for _, a := range s.Annot {
				fmt.Printf("    annot key=%d val=%d\n", a.Key, a.Val)
			}
			if s.Closed && len(s.Path) > 0 {
				fmt.Printf("    path sum = %d (end-to-end %d)\n", sum, s.Duration())
			}
		}
	}
}

func spanChrome(f *obs.File) {
	run, _, spans, _ := buildSpans(f)
	us := func(c int64) float64 { return micros(run, float64(c)) }
	var out []chromeEvent
	for _, s := range spans {
		id := fmt.Sprintf("%d", uint64(s.ID))
		for _, p := range s.Path {
			if p.Dur <= 0 {
				continue // cross-CPU clock skew can yield non-positive hops
			}
			out = append(out, chromeEvent{
				Name: s.Name + ":" + p.Name,
				Ph:   "X",
				Ts:   us(int64(p.Start)),
				Dur:  us(p.Dur),
				PID:  1,
				TID:  int(s.CPU),
				Args: map[string]string{"span": id, "detail": fmt.Sprintf("%d", s.Detail)},
			})
		}
	}
	writeChrome(out)
}

// spanJSON prints the run description, the report and every
// reconstructed span as one JSON document.
func spanJSON(f *obs.File) {
	run, d, spans, rep := buildSpans(f)
	type meta struct {
		Model        string   `json:"model"`
		FreqMHz      int      `json:"freq_mhz"`
		NumCPUs      int      `json:"num_cpus"`
		RingCapacity int      `json:"ring_capacity"`
		ClassNames   []string `json:"class_names"`
		SegNames     []string `json:"seg_names"`
		KindNames    []string `json:"kind_names"`
	}
	writeJSON(struct {
		Meta   meta         `json:"meta"`
		Report *span.Report `json:"report"`
		Spans  []*span.Span `json:"spans"`
	}{meta{run.Model, run.FreqMHz, run.NumCPUs, d.Capacity, span.ClassNames(), span.SegNames(), span.KindNames()}, rep, spans})
}
