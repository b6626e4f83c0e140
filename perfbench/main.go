// Command perfbench is the host-performance benchmark of the simulator:
// how fast it simulates, end to end and per layer. It runs one workload
// through the configuration the project ships (decode cache and
// superblocks on, nothing attached) for a fixed host time, repeating a
// fresh machine with the seed's inputs, and checks every repetition's
// outputs and simulated fingerprint.
//
//	perfbench --workload compile-ept|compile-vtlb|disk-rw --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// repeats the workload untraced and then under a CPU profile, and
// reports the per-layer metrics: the counters each module exports,
// host-time shares per module, and microbenchmarks of module entry
// points. Each metric is printed with its unit, median, min, max and
// sample count; the last line of standard output is a JSON summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics of an untraced run.
var endToEnd = []struct{ name, unit, better string }{
	{"guest_mips", "Minst/s", "higher"},
	{"sim_mhz", "MHz", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// minReps is the fewest repetitions a run makes, however short.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "compile-ept, compile-vtlb or disk-rw")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gen, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	j := gen(*seed)
	budget := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(j, budget)
	} else {
		res = runTimed(j, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)
	res.print(stdout)
	if err := res.writeJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// summary is the distribution of one metric over its samples.
type summary struct {
	median, min, max float64
	n                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{median: math.NaN(), min: math.NaN(), max: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{median: m, min: s[0], max: s[len(s)-1], n: len(s)}
}

// metric is one reported metric.
type metric struct {
	name, unit string
	s          summary
	moves      string // for a per-layer metric: what it should move
}

// result is what a run reports.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	wrong     int // repetitions whose outputs or fingerprint were wrong
	notes     []string
}

// phase is a sequence of repetitions of one job and their accounting.
type phase struct {
	reps      []rep
	attempted int
	failed    int
	wrong     int
	problems  []string // one per repetition that failed operations
}

// repeat runs repetitions of j until budget has passed (at least
// minReps), charging failed operations: the unfinished ones of a
// stalled run, and all of a repetition whose outputs or fingerprint are
// wrong. ref is the fingerprint every repetition must reproduce; the
// first repetition sets it when nil. Garbage from earlier work is
// collected before each repetition so it is not billed to it; prof, if
// not nil, profiles each repetition and not that collection.
func repeat(j job, budget time.Duration, ref *fingerprint, prof *cpuProfile) (phase, *fingerprint) {
	var ph phase
	deadline := time.Now().Add(budget)
	for len(ph.reps) < minReps || time.Now().Before(deadline) {
		runtime.GC()
		prof.start()
		rp := runRep(j)
		prof.stop()
		ph.attempted += j.ops
		bad := rp.err
		if bad == nil && ref != nil && rp.fp != *ref {
			bad = fmt.Errorf("simulated fingerprint %+v differs from %+v", rp.fp, *ref)
		}
		switch {
		case bad != nil:
			ph.failed += j.ops
			ph.wrong++
			ph.problems = append(ph.problems, bad.Error())
		case rp.completed < j.ops:
			ph.failed += j.ops - rp.completed
			ph.problems = append(ph.problems, fmt.Sprintf("hung after %d of %d operations", rp.completed, j.ops))
		}
		if ref == nil && rp.err == nil {
			fp := rp.fp
			ref = &fp
		}
		ph.reps = append(ph.reps, rp)
	}
	return ph, ref
}

// tally merges the phases' accounting into r, with one note per
// distinct problem and how many repetitions had it.
func (r *result) tally(phases ...phase) {
	seen := map[string]int{}
	var order []string
	reps := 0
	for _, ph := range phases {
		r.attempted += ph.attempted
		r.failed += ph.failed
		r.wrong += ph.wrong
		reps += len(ph.reps)
		for _, p := range ph.problems {
			if seen[p] == 0 {
				order = append(order, p)
			}
			seen[p]++
		}
	}
	for _, p := range order {
		r.notes = append(r.notes, fmt.Sprintf("%s (%d of %d repetitions)", p, seen[p], reps))
	}
}

// collect gathers one value per repetition; f may skip a repetition.
func collect(reps []rep, f func(rep) (float64, bool)) summary {
	var xs []float64
	for _, rp := range reps {
		if v, ok := f(rp); ok {
			xs = append(xs, v)
		}
	}
	return summarize(xs)
}

// throughput skips repetitions that completed nothing.
func throughput(f func(rep) float64) func(rep) (float64, bool) {
	return func(rp rep) (float64, bool) {
		if rp.completed == 0 || rp.run <= 0 {
			return 0, false
		}
		return f(rp), true
	}
}

func always(f func(rep) float64) func(rep) (float64, bool) {
	return func(rp rep) (float64, bool) { return f(rp), true }
}

// runTimed measures the end-to-end metrics.
func runTimed(j job, budget time.Duration) result {
	ph, _ := repeat(j, budget, nil, nil)
	perRep := map[string]func(rep) (float64, bool){
		"guest_mips": throughput(func(rp rep) float64 { return float64(rp.insts) / rp.run.Seconds() / 1e6 }),
		"sim_mhz":    throughput(func(rp rep) float64 { return float64(rp.cycles) / (rp.run.Seconds() * 1e6) }),
		"ops_per_s":  throughput(func(rp rep) float64 { return float64(rp.completed) / rp.run.Seconds() }),
		"setup_s":    always(func(rp rep) float64 { return rp.setup.Seconds() }),
		"alloc_mb":   always(func(rp rep) float64 { return float64(rp.allocBytes) / (1 << 20) }),
	}
	var res result
	res.tally(ph)
	for _, m := range endToEnd {
		res.metrics = append(res.metrics, metric{m.name, m.unit, collect(ph.reps, perRep[m.name]), ""})
	}
	return res
}

// runTraced measures the per-layer metrics: half the budget untraced,
// half under a CPU profile (whose fingerprints must match the untraced
// ones), then the microbenchmarks.
func runTraced(j job, budget time.Duration) (result, error) {
	plain, ref := repeat(j, budget/2, nil, nil)

	prof := &cpuProfile{}
	traced, _ := repeat(j, budget/2, ref, prof)
	if prof.err != nil {
		return result{}, prof.err
	}
	shares, nsamples := hostShares(prof.samples)

	micros, err := microbenchmarks(j)
	if err != nil {
		return result{}, err
	}

	var res result
	res.tally(plain, traced)
	res.notes = append(res.notes, fmt.Sprintf("host shares from %d CPU-profile samples over %d traced repetitions",
		nsamples, len(traced.reps)))
	var counts map[string]float64
	for _, rp := range plain.reps {
		if rp.counts != nil {
			counts = rp.counts
			break
		}
	}
	ms := func(f func(rep) time.Duration) summary {
		return collect(plain.reps, always(func(rp rep) float64 { return float64(f(rp)) / float64(time.Millisecond) }))
	}
	runTime := func(reps []rep) float64 {
		return collect(reps, throughput(func(rp rep) float64 { return rp.run.Seconds() })).median
	}
	listed := map[string]bool{}
	for _, lm := range layerMetrics {
		var s summary
		switch {
		case lm.name == "guest.build_ms":
			s = ms(func(rp rep) time.Duration { return rp.build })
		case lm.name == "guest.new_runner_ms":
			s = ms(func(rp rep) time.Duration { return rp.newRunner })
		case lm.name == "runtime.gc_s":
			s = collect(plain.reps, always(func(rp rep) float64 { return rp.gcSeconds }))
		case lm.name == "trace.overhead":
			s = summarize([]float64{runTime(traced.reps)/runTime(plain.reps) - 1})
		case strings.HasSuffix(lm.name, ".host_share"):
			layer := strings.TrimSuffix(lm.name, ".host_share")
			listed[layer] = true
			s = summarize([]float64{shares[layer]})
		default:
			if m, ok := micros[lm.name]; ok {
				s = m
			} else if c, ok := counts[lm.name]; ok {
				s = summarize([]float64{c})
			} else {
				return result{}, fmt.Errorf("no measurement for %s", lm.name)
			}
		}
		res.metrics = append(res.metrics, metric{lm.name, lm.unit, s, lm.moves})
	}
	for _, layer := range sortedKeys(shares) {
		if !listed[layer] {
			res.notes = append(res.notes, fmt.Sprintf("host share of %s: %.4f", layer, shares[layer]))
		}
	}
	return res, nil
}

// print writes the human-readable table.
func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "%-26s %-8s %14s %14s %14s %5s  %s\n", "metric", "unit", "median", "min", "max", "n", "should move")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-26s %-8s %14.6g %14.6g %14.6g %5d  %s\n", m.name, m.unit, m.s.median, m.s.min, m.s.max, m.s.n, m.moves)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-26s %-8s %14.6g   (%d of %d operations)\n", "failed_share", "ratio", share, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// writeJSON writes the one-line JSON summary. It is correct unless a
// repetition produced a wrong output or fingerprint; the unfinished
// operations of a hung run count as failed without being wrong.
func (r result) writeJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.s.median) || math.IsInf(m.s.median, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		out.Metrics[m.name] = value{m.s.median, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
