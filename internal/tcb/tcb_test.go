package tcb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPaperFigure1Invariants(t *testing.T) {
	stacks := PaperFigure1()
	if len(stacks) != 6 {
		t.Fatalf("stacks = %d, want 6", len(stacks))
	}
	if stacks[0].Name != "NOVA" {
		t.Fatal("NOVA must come first")
	}
	nova := stacks[0]
	if nova.Total() != 36 {
		t.Errorf("NOVA total = %.0f, want 36 (9+7+20)", nova.Total())
	}
	if nova.Privileged() != 9 {
		t.Errorf("NOVA privileged = %.0f, want 9", nova.Privileged())
	}
	// The order-of-magnitude claim: every competitor's TCB is at least
	// 5x NOVA's.
	for _, s := range stacks[1:] {
		if s.Total() < 5*nova.Total() {
			t.Errorf("%s total %.0f < 5x NOVA", s.Name, s.Total())
		}
		if s.Privileged() == 0 {
			t.Errorf("%s has no privileged component", s.Name)
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}

func TestCountRepo(t *testing.T) {
	res, err := CountRepo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CountResult{}
	for _, r := range res {
		byName[r.Component] = r
	}
	for _, name := range []string{"Microhypervisor", "User Env.", "VMM"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("component %q missing", name)
		}
		if r.Code == 0 || r.Files == 0 {
			t.Errorf("%s counted empty: %+v", name, r)
		}
		if r.Tests == 0 {
			t.Errorf("%s has no test lines?", name)
		}
	}
	// The reproduction keeps NOVA's proportions: the microhypervisor is
	// much smaller than the VMM+substrate combined.
	hv := byName["Microhypervisor"].Code
	rest := byName["VMM"].Code + byName["Substrate (sim)"].Code
	if hv >= rest {
		t.Errorf("microhypervisor (%d) not smaller than VMM+substrate (%d)", hv, rest)
	}
}

func TestCountLinesSkipsBlanksAndComments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	content := "package x\n\n// comment\nfunc F() {}\n\n// more\nvar V = 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := countLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // package, func, var
		t.Errorf("counted %d lines, want 3", n)
	}
}

func TestFormatOutput(t *testing.T) {
	out := Format(nil)
	for _, want := range []string{"NOVA", "Hyper-V", "smaller"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	live := []CountResult{{Component: "X", Files: 1, Code: 10, Tests: 5}}
	out = Format(live)
	if !strings.Contains(out, "live count") || !strings.Contains(out, "X") {
		t.Error("live section missing")
	}
}

// microhypervisorBudget caps the live Microhypervisor code count. The
// paper's Figure 1 argument is that the privileged component stays
// small — anything not needed for isolation lives outside it — so the
// count may shrink but not grow; lower the cap when it shrinks.
const microhypervisorBudget = 2253

func TestMicrohypervisorBudget(t *testing.T) {
	res, err := CountRepo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Component == "Microhypervisor" && r.Code > microhypervisorBudget {
			t.Errorf("Microhypervisor has %d code lines, over its budget of %d", r.Code, microhypervisorBudget)
		}
	}
}
