package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the repository root (the directory with go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	return root
}

// TestRepoInvariants is the tier-1 gate: the whole repository must pass
// every analyzer of the default suite with no finding at all. This is
// the test that keeps the invariants intact forever — a new finding
// fails `go test ./...`, not just the optional nova-vet run.
func TestRepoInvariants(t *testing.T) {
	diags, err := RunSuite(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("invariant violation: %s", d)
	}
}

// TestLoaderCoversRepo sanity-checks the source loader: every package
// the analyzers depend on must load and type-check.
func TestLoaderCoversRepo(t *testing.T) {
	prog, err := LoadRepo(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(append([]string{}, SimCriticalPackages...), EntryPointPackages...) {
		if prog.Package(path) == nil {
			t.Errorf("suite package %s not loaded", path)
		}
	}
	if len(prog.Pkgs) < 15 {
		t.Errorf("suspiciously few packages loaded: %d", len(prog.Pkgs))
	}
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// expectation is one `// want "substring"` comment in a fixture.
type expectation struct {
	file string // base name
	line int
	want string
}

// fixtureExpectations scans a loaded fixture package for want comments.
func fixtureExpectations(prog *Program, pkg *Package) []expectation {
	var exps []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				exps = append(exps, expectation{filepath.Base(pos.Filename), pos.Line, m[1]})
			}
		}
	}
	return exps
}

// fixtureCases pairs each analyzer with its testdata fixture package.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
}{
	{Determinism, "determinism"},
	{Capcheck, "capcheck"},
	{Capflow, "capflow"},
	{Chargecheck, "chargecheck"},
	{Nopanic, "nopanic"},
	{Exhaustive, "exhaustive"},
	{Taint, "taint"},
	{Tracepure, "tracepure"},
	{Globalstate, "globalstate"},
	{Isolation, "isolation"},
	{Concurrency, "concurrency"},
}

// loadFixture loads one testdata fixture package.
func loadFixture(t *testing.T, dir string) (*Program, *Package) {
	t.Helper()
	root := repoRoot(t)
	prog, err := LoadDirs(root, []string{filepath.Join(root, "internal", "analysis", "testdata", "src", dir)})
	if err != nil {
		t.Fatal(err)
	}
	return prog, prog.Pkgs[0]
}

// TestAnalyzersOnFixtures runs each analyzer over its testdata fixture
// package and requires an exact match between reported diagnostics and
// the `// want "..."` comments: every seeded violation is caught, and
// nothing else is flagged.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			prog, pkg := loadFixture(t, tc.dir)
			diags, err := tc.analyzer.Run(prog, []*Package{pkg})
			if err != nil {
				t.Fatal(err)
			}
			exps := fixtureExpectations(prog, pkg)
			if len(exps) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.dir)
			}

			matched := make([]bool, len(diags))
			for _, exp := range exps {
				found := false
				for i, d := range diags {
					if matched[i] {
						continue
					}
					if filepath.Base(d.Pos.Filename) == exp.file && d.Pos.Line == exp.line && strings.Contains(d.Message, exp.want) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("expected diagnostic at %s:%d containing %q, got none", exp.file, exp.line, exp.want)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestDiagnosticsDeterministic re-runs every analyzer on its loaded
// fixture program, recomputing the shared effect summaries each time,
// and requires byte-identical diagnostics: Go's randomised map order
// must not reach a finding or the path that explains it.
func TestDiagnosticsDeterministic(t *testing.T) {
	const runs = 8
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			prog, pkg := loadFixture(t, tc.dir)
			var first string
			for i := 0; i < runs; i++ {
				prog.eff = nil
				diags, err := tc.analyzer.Run(prog, []*Package{pkg})
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, d := range diags {
					b.WriteString(d.String() + "\n")
				}
				if i == 0 {
					first = b.String()
				} else if b.String() != first {
					t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, b.String(), first)
				}
			}
		})
	}
}
