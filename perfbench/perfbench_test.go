package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"nova/internal/guest"
	"nova/internal/hw"
)

func TestDiskStreamIsSeeded(t *testing.T) {
	a, b := diskStream(7, 20), diskStream(7, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave different requests at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := diskStream(8, 20)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	// Each block size appears 20 times, 10 as writes and 10 as reads.
	type kind struct {
		write   bool
		sectors uint32
	}
	mix := map[kind]int{}
	for _, q := range a {
		if q.lba < diskFirstLBA || q.lba+q.sectors > diskFirstLBA+diskLBASpan {
			t.Fatalf("request out of range: %+v", q)
		}
		mix[kind{q.write, q.sectors}]++
	}
	for _, sectors := range fig6Sectors {
		for _, write := range []bool{false, true} {
			if n := mix[kind{write, sectors}]; n != 10 {
				t.Errorf("%d requests of %d sectors with write=%v, want 10", n, sectors, write)
			}
		}
	}
	if len(mix) != 2*len(fig6Sectors) {
		t.Errorf("stream has %d kinds of request, want %d", len(mix), 2*len(fig6Sectors))
	}
}

func TestCompileParamsAreSeeded(t *testing.T) {
	if drawCompileParams(3) != drawCompileParams(3) {
		t.Fatal("seed 3 gave different compile parameters")
	}
	distinct := map[compileParams]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		distinct[drawCompileParams(seed)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("eight seeds gave the same compile parameters")
	}
}

// readFirstDwords folds the first dword of each of n sectors at lba,
// read straight from d.
func readFirstDwords(t *testing.T, d *hw.Disk, lba uint32, n uint32) uint32 {
	t.Helper()
	buf := make([]byte, int(n)*hw.SectorSize)
	if err := d.ReadSectors(uint64(lba), int(n), buf); err != nil {
		t.Fatal(err)
	}
	var sum uint32
	for s := 0; s < int(n); s++ {
		sum += binary.LittleEndian.Uint32(buf[s*hw.SectorSize:])
	}
	return sum
}

func newModelDisk() *hw.Disk { return hw.NewDisk(1<<24, 67, 8200, 2667) }

func TestExpectedSumMatchesReadSectors(t *testing.T) {
	// Reads only: the sum is what ReadSectors on an untouched disk gives.
	var reads []diskReq
	for _, q := range diskStream(11, 40) {
		if !q.write {
			reads = append(reads, q)
		}
	}
	got, err := expectedDiskSum(reads, newModelDisk())
	if err != nil {
		t.Fatal(err)
	}
	direct := newModelDisk()
	var want uint32
	for _, q := range reads {
		want += readFirstDwords(t, direct, q.lba, q.sectors)
	}
	if got != want {
		t.Fatalf("expected sum %#x, direct reads give %#x", got, want)
	}

	// A read after a write sees the write's stamps; its neighbours still
	// read the disk's own content.
	w := diskReq{write: true, lba: 5000, sectors: 4, stamp: 0x1234}
	r := diskReq{lba: 4999, sectors: 6}
	got, err = expectedDiskSum([]diskReq{w, r}, newModelDisk())
	if err != nil {
		t.Fatal(err)
	}
	var stamps uint32
	for s := uint32(0); s < 4; s++ {
		stamps += w.stamp + s*stampStep
	}
	plain := newModelDisk()
	want = 2*stamps + readFirstDwords(t, plain, 4999, 1) + readFirstDwords(t, plain, 5004, 1)
	if got != want {
		t.Fatalf("write-then-read sum %#x, want %#x", got, want)
	}
}

func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(kind string, got []decl, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if !valid.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, want[i].Name)
			}
			seen[want[i].Name] = true
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark reports %+v", kind, got[i], want[i])
			}
		}
	}
	var e2e, layers []decl
	for _, m := range endToEnd {
		e2e = append(e2e, decl{m.name, m.unit, m.better})
	}
	for _, m := range layerMetrics {
		layers = append(layers, decl{m.name, m.unit, m.better})
	}
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, layers)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

// tinyJobs are small versions of each workload.
func tinyJobs() map[string]job {
	p := compileParams{slices: 4, cachePages: 64, privPages: 8, filler: 500, subslices: 1}
	return map[string]job{
		"compile-ept":  compileJob(p, guest.ModeVirtEPT),
		"compile-vtlb": compileJob(p, guest.ModeVirtVTLB),
		"disk-rw":      diskJob(5, 4),
	}
}

func TestSmokeRunsPassChecks(t *testing.T) {
	for name, j := range tinyJobs() {
		ph, ref := repeat(j, 0, nil, nil)
		if ph.failed != 0 || ref == nil {
			t.Errorf("%s: %d of %d operations failed: %v", name, ph.failed, ph.attempted, ph.problems)
			continue
		}
		if ref.Completed != j.ops || ref.DoneTSC == 0 || ref.Output == 0 {
			t.Errorf("%s: fingerprint %+v does not show a finished run", name, *ref)
		}
		if rp := ph.reps[0]; rp.run <= 0 || rp.insts == 0 || rp.cycles == 0 {
			t.Errorf("%s: empty run window %+v", name, rp)
		}
	}
}

func TestWrongResultsFailRepetitions(t *testing.T) {
	j := tinyJobs()["disk-rw"]
	check := j.check
	j.check = func(r *guest.Runner, completed int) error {
		r.WriteGuest(diskSumAddr, []byte{1, 2, 3, 4}) // corrupt the guest's sum
		return check(r, completed)
	}
	ph, _ := repeat(j, 0, nil, nil)
	if ph.wrong != len(ph.reps) || ph.failed != ph.attempted {
		t.Errorf("corrupted sum: %d wrong of %d repetitions, %d of %d operations failed",
			ph.wrong, len(ph.reps), ph.failed, ph.attempted)
	}

	ph, _ = repeat(tinyJobs()["disk-rw"], 0, &fingerprint{}, nil)
	if ph.wrong != len(ph.reps) {
		t.Errorf("foreign fingerprint: %d wrong of %d repetitions", ph.wrong, len(ph.reps))
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	j := tinyJobs()["disk-rw"]
	res, err := runTraced(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.wrong != 0 {
		t.Fatalf("traced run failed %d operations: %v", res.failed, res.notes)
	}
	if len(res.metrics) != len(layerMetrics) {
		t.Fatalf("traced run reports %d metrics, want %d", len(res.metrics), len(layerMetrics))
	}
}

func TestStallCountsUnfinishedOperations(t *testing.T) {
	// The guest completes two of five operations and then waits forever:
	// with interrupts off the machine goes idle for good; with the timer
	// ticking it keeps running but the progress counter stands still.
	for _, tc := range []struct {
		name    string
		timerHz int
		wait    string
	}{
		{"idle", 0, "cli\n\thlt"},
		{"ticking", 100, "wait:\n\thlt\n\tjmp wait"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := job{
				cfg: guest.RunnerConfig{Model: hw.BLM, Mode: guest.ModeVirtEPT, UseVPID: true, SchedTimerHz: -1},
				kernel: guest.KernelOpts{TimerHz: tc.timerHz, Workload: fmt.Sprintf(`
	mov dword [%#[1]x], 1
	mov dword [%#[1]x], 2
	%[2]s
`, guest.ProgressAddr, tc.wait)},
				ops:    5,
				output: guest.ProgressAddr,
				check:  func(*guest.Runner, int) error { return nil },
			}
			start := time.Now()
			ph, _ := repeat(j, 0, nil, nil)
			if el := time.Since(start); el > time.Minute {
				t.Errorf("stall detection took %v", el)
			}
			rp := ph.reps[0]
			if !rp.stalled || rp.completed != 2 {
				t.Fatalf("stalled=%v completed=%d, want a stall after 2 operations", rp.stalled, rp.completed)
			}
			if ph.attempted != 5*len(ph.reps) || ph.failed != 3*len(ph.reps) || ph.wrong != 0 {
				t.Fatalf("attempted %d failed %d wrong %d over %d repetitions, want 5 and 3 each and none wrong",
					ph.attempted, ph.failed, ph.wrong, len(ph.reps))
			}
			if rp.cycles >= stallWindow {
				t.Fatalf("run window of %d cycles includes the stall", rp.cycles)
			}
		})
	}
}
