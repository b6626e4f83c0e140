package main

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"nova/internal/obs"
)

func statReport(f *obs.File, filter string) {
	run, d := &f.Run, f.Stat
	seconds := float64(d.FinalCycles) / (float64(run.FreqMHz) * 1e6)
	fmt.Printf("stats: %s @ %d MHz, %d CPU(s), epoch length %d cycles\n",
		run.Model, run.FreqMHz, run.NumCPUs, d.EpochLen)
	fmt.Printf("run: %d virtual cycles = %.3f ms simulated time\n\n",
		d.FinalCycles, seconds*1000)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "METRIC\tKIND\tTOTAL\tRATE/SEC\tDETAIL")
	shown := 0
	for i := range d.Metrics {
		md := &d.Metrics[i]
		if filter != "" && !strings.Contains(md.Name, filter) {
			continue
		}
		shown++
		rate := "-"
		if seconds > 0 && (md.Kind == "counter" || md.Kind == "histogram") {
			rate = fmt.Sprintf("%.1f", float64(md.Total)/seconds)
		}
		detail := ""
		switch {
		case md.Kind == "gauge":
			detail = fmt.Sprintf("max %d", md.Max)
		case md.Hist != nil && md.Hist.Count > 0:
			h := md.Hist
			// p50/p99/p999 are nearest-rank quantiles from the log2
			// buckets: exact ranks, bucket-upper-bound values.
			detail = fmt.Sprintf("avg %d cycles, min %d, p50 %d, p99 %d, p999 %d, max %d",
				h.Sum/h.Count, h.Min,
				h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\n", md.Name, md.Kind, md.Total, rate, detail)
	}
	w.Flush() //nolint:errcheck
	if shown == 0 {
		fmt.Printf("no metrics match %q\n", filter)
	}
}

// epochs prints one metric's virtual-time series, one line per epoch
// cell with its cycle window.
func statEpochs(f *obs.File, name string) {
	d := f.Stat
	if name == "" {
		fail("epochs: -metric NAME is required")
	}
	for i := range d.Metrics {
		md := &d.Metrics[i]
		if md.Name != name {
			continue
		}
		fmt.Printf("%s (%s): %d total over %d epoch(s)\n", md.Name, md.Kind, md.Total, len(md.Epochs))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "EPOCH\tCYCLES\tVALUE")
		for _, c := range md.Epochs {
			lo := c.Epoch * d.EpochLen
			fmt.Fprintf(w, "%d\t[%d,%d)\t%d\n", c.Epoch, lo, lo+d.EpochLen, c.Value)
		}
		w.Flush() //nolint:errcheck
		return
	}
	fail("epochs: no metric named %q (try `nova-obs stat report` to list names)", name)
}

func statJSON(f *obs.File) {
	b, err := f.Stat.JSON(&f.Run)
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(b) //nolint:errcheck
}

func statOpenMetrics(f *obs.File) {
	os.Stdout.Write(f.Stat.OpenMetrics()) //nolint:errcheck
}
