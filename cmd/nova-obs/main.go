// Command nova-obs renders a NOVAOBS1 observation file written by
// `nova-run -obs` (or any program that encodes an obs.File). The first
// argument names a recorder section, the second a view of it:
//
//	nova-obs trace timeline [-limit N] FILE  # textual event timeline
//	nova-obs trace attrib FILE               # Figure 8/9 cost attribution
//	nova-obs trace chrome FILE               # Chrome trace_event JSON
//	nova-obs trace metrics FILE              # counters and histograms (JSON)
//	nova-obs prof report [-top N] FILE       # summary + hot-address table
//	nova-obs prof folded FILE                # folded stacks (flamegraph input)
//	nova-obs prof pprof [-o OUT] FILE        # pprof protobuf (go tool pprof)
//	nova-obs stat report [-filter S] FILE    # summary table with rates
//	nova-obs stat epochs -metric NAME FILE   # one metric's virtual-time series
//	nova-obs stat json FILE                  # full snapshot as JSON
//	nova-obs stat openmetrics FILE           # OpenMetrics text format
//	nova-obs span report [-requests N] FILE  # per-class tails + critical paths
//	nova-obs span chrome FILE                # Chrome trace_event JSON
//	nova-obs span json FILE                  # the full span report as JSON
//
// Both chrome views load into chrome://tracing or Perfetto, side by
// side. Everything printed derives from deterministic virtual-time
// data: two runs of the same workload render identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"nova/internal/obs"
	"nova/internal/trace"
)

// view is one renderer: flags registers its flags on fs and returns the
// function that renders a decoded file.
type view struct {
	section, name string
	flags         func(fs *flag.FlagSet) func(f *obs.File)
}

var views = []view{
	{"trace", "timeline", func(fs *flag.FlagSet) func(*obs.File) {
		limit := fs.Int("limit", 0, "print at most N events (0 = all)")
		return func(f *obs.File) { traceTimeline(f, *limit) }
	}},
	{"trace", "attrib", noFlags(traceAttrib)},
	{"trace", "chrome", noFlags(traceChrome)},
	{"trace", "metrics", noFlags(traceMetrics)},
	{"prof", "report", func(fs *flag.FlagSet) func(*obs.File) {
		top := fs.Int("top", 20, "rows in the hot-address table")
		return func(f *obs.File) { profReport(f, *top) }
	}},
	{"prof", "folded", noFlags(profFolded)},
	{"prof", "pprof", func(fs *flag.FlagSet) func(*obs.File) {
		out := fs.String("o", "", "output file (default stdout)")
		return func(f *obs.File) { profPprof(f, *out) }
	}},
	{"stat", "report", func(fs *flag.FlagSet) func(*obs.File) {
		filter := fs.String("filter", "", "only metrics whose name contains this substring")
		return func(f *obs.File) { statReport(f, *filter) }
	}},
	{"stat", "epochs", func(fs *flag.FlagSet) func(*obs.File) {
		metric := fs.String("metric", "", "metric name (exact, including labels)")
		return func(f *obs.File) { statEpochs(f, *metric) }
	}},
	{"stat", "json", noFlags(statJSON)},
	{"stat", "openmetrics", noFlags(statOpenMetrics)},
	{"span", "report", func(fs *flag.FlagSet) func(*obs.File) {
		requests := fs.Int("requests", 0, "also dump the first N individual requests")
		return func(f *obs.File) { spanReport(f, *requests) }
	}},
	{"span", "chrome", noFlags(spanChrome)},
	{"span", "json", noFlags(spanJSON)},
}

func noFlags(render func(*obs.File)) func(*flag.FlagSet) func(*obs.File) {
	return func(*flag.FlagSet) func(*obs.File) { return render }
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	i := slices.IndexFunc(views, func(v view) bool { return v.section == os.Args[1] && v.name == os.Args[2] })
	if i < 0 {
		usage()
	}
	v := views[i]
	fs := flag.NewFlagSet("nova-obs "+v.section+" "+v.name, flag.ExitOnError)
	render := v.flags(fs)
	fs.Parse(os.Args[3:]) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		usage()
	}
	render(load(fs.Arg(0), v.section))
}

func usage() {
	lines := []string{"usage: nova-obs SECTION VIEW [flags] FILE"}
	for _, v := range views {
		lines = append(lines, "  nova-obs "+v.section+" "+v.name)
	}
	fail("%s", strings.Join(lines, "\n"))
}

// load decodes the file at path and checks that it holds section.
func load(path, section string) *obs.File {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	f, err := obs.Decode(b)
	if err != nil {
		fail("%s: %v", path, err)
	}
	if !slices.Contains(f.Sections(), section) {
		fail("%s has no %s section (it holds %s)", path, section, strings.Join(f.Sections(), ", "))
	}
	return f
}

// warnTruncation prints one stderr notice per CPU whose ring overwrote
// records: views built from the records then cover only the tail of
// the run (counters, histograms and summaries still cover all of it).
func warnTruncation(section string, overwritten []uint64) {
	for cpu, n := range overwritten {
		if n > 0 {
			fmt.Fprintf(os.Stderr,
				"nova-obs: warning: %s cpu%d ring overwrote %d records; record-derived output covers only the tail of the run\n",
				section, cpu, n)
		}
	}
}

// micros converts virtual cycles to microseconds at the run's clock.
func micros(run *trace.Meta, cycles float64) float64 {
	mhz := float64(run.FreqMHz)
	if mhz == 0 {
		mhz = 1
	}
	return cycles / mhz
}

// chromeEvent is one trace_event record (JSON Array Format).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

func writeChrome(events []chromeEvent) {
	json.NewEncoder(os.Stdout).Encode(events) //nolint:errcheck
}

// writeJSON prints v as indented JSON.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, strings.TrimRight(format, "\n")+"\n", args...)
	os.Exit(1)
}
