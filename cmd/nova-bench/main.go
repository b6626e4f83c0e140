// Command nova-bench regenerates the paper's evaluation: every figure
// and table of §8, plus the ablations of this reproduction's DESIGN.md.
//
//	nova-bench -experiment all -scale quick
//	nova-bench -experiment fig5 -scale full
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"nova/internal/bench"
	"nova/internal/tcb"
)

func main() {
	root := flag.String("root", ".", "repository root for the fig1 line count")
	// experiments lists every experiment in run order. fig1 prints the
	// TCB comparison and returns no table, so it stays out of the report.
	experiments := []struct {
		name string
		run  func(bench.Scale) (*bench.Table, error)
	}{
		{"fig1", func(bench.Scale) (*bench.Table, error) {
			live, err := tcb.CountRepo(*root)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fig1: live line count: %v\n", err)
				live = nil // still print the paper comparison
			}
			fmt.Println(tcb.Format(live))
			return nil, nil
		}},
		{"tab1", func(bench.Scale) (*bench.Table, error) { return bench.RunTab1(), nil }},
		{"fig5", func(sc bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig5(sc); return t, err }},
		{"fig6", func(sc bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig6(sc); return t, err }},
		{"fig7", func(sc bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig7(sc); return t, err }},
		{"fig8", func(bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig8(); return t, err }},
		{"fig9", func(bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig9(); return t, err }},
		{"tab2", func(sc bench.Scale) (*bench.Table, error) { t, _, err := bench.RunTab2(sc); return t, err }},
		{"ablations", func(sc bench.Scale) (*bench.Table, error) { t, _, err := bench.RunAblations(sc); return t, err }},
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}

	experiment := flag.String("experiment", "all", strings.Join(names, "|"))
	scaleName := flag.String("scale", "quick", "quick|full")
	out := flag.String("out", "", "write results as JSON to this file (e.g. BENCH_quick.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile of the host process to this file")
	compare := flag.Bool("compare", false,
		"compare two report files (BASELINE.json NEW.json) instead of running; exit 1 on drift")
	flag.Parse()

	if *compare {
		compareReports(flag.Args())
		return
	}

	var sc bench.Scale
	switch *scaleName {
	case "quick":
		sc = bench.Quick()
	case "full":
		sc = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if !slices.Contains(names, *experiment) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *experiment, strings.Join(names, "|"))
		os.Exit(2)
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	report := &bench.Report{Scale: *scaleName}
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(e.name))
		t, err := e.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if t != nil {
			report.Add(e.name, t)
			fmt.Println(t)
		}
	}

	stopProfiles()

	if *out != "" {
		b, err := report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report: %s (%d experiments)\n", *out, len(report.Experiments))
	}
}

// compareReports diffs two bench report files and exits 1 on any drift
// in the simulated results, so CI fails.
func compareReports(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nova-bench -compare BASELINE.json NEW.json")
		os.Exit(2)
	}
	baseline, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	current, err := os.ReadFile(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	drift, err := bench.Compare(baseline, current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	if len(drift) > 0 {
		fmt.Printf("DRIFT: %d difference(s) between %s and %s:\n", len(drift), args[0], args[1])
		for _, d := range drift {
			fmt.Printf("  %s\n", d)
		}
		fmt.Println("simulated results changed; investigate, or refresh the baseline if intentional")
		os.Exit(1)
	}
	fmt.Printf("OK: %s and %s agree on every field\n", args[0], args[1])
}

// startProfiles begins host-side pprof profiling as requested and
// returns the stop/flush function (idempotent). Profiles measure the
// simulator process, never the simulated platform.
func startProfiles(cpuFile, memFile string) func() {
	var cf *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		cf = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cf != nil {
			pprof.StopCPUProfile()
			cf.Close()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create mem profile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write mem profile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}
