package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// TestCallGraphResolution checks the two resolution modes the
// downstream analyzers rely on: interface calls fan out to every
// implementation in the program (chargecheck's reachability walks
// these edges), and method / function values referenced without an
// immediate call still produce edges (callbacks registered now, run
// later).
func TestCallGraphResolution(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "callgraph")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	cg := prog.CallGraph()

	nodeByName := func(name string) *FuncNode {
		t.Helper()
		for _, n := range cg.Ordered {
			if FuncDisplayName(n.Fn) == name {
				return n
			}
		}
		t.Fatalf("function %s not in call graph", name)
		return nil
	}
	callees := func(n *FuncNode) map[string]bool {
		out := make(map[string]bool)
		for _, e := range n.Out {
			out[FuncDisplayName(e.Callee)] = true
		}
		return out
	}

	// Interface call: dispatch invokes Device.Tick, which must resolve
	// to both concrete implementations.
	got := callees(nodeByName("callgraph.dispatch"))
	for _, want := range []string{"callgraph.PIT.Tick", "callgraph.Serial.Tick"} {
		if !got[want] {
			t.Errorf("dispatch: missing interface-call edge to %s (have %v)", want, got)
		}
	}

	// Method value: f := p.Tick; f() must keep the edge to PIT.Tick.
	if got := callees(nodeByName("callgraph.viaValue")); !got["callgraph.PIT.Tick"] {
		t.Errorf("viaValue: missing method-value edge to PIT.Tick (have %v)", got)
	}

	// Function value passed as an argument: referencing helper is an
	// edge even though root never calls it directly.
	if got := callees(nodeByName("callgraph.root")); !got["callgraph.helper"] {
		t.Errorf("root: missing function-value edge to helper (have %v)", got)
	}

	// Generic method: the call through Box[int] must resolve to the
	// generic declaration, the one function with a body and a node.
	generic := false
	for _, e := range nodeByName("callgraph.viaGeneric").Out {
		generic = generic || (e.Callee.Name() == "Put" && cg.Node(e.Callee) != nil)
	}
	if !generic {
		t.Error("viaGeneric: no edge to the Box.Put declaration")
	}

	// Reachability: a predicate on Tick must mark dispatch and viaValue
	// (they can reach a Tick implementation) but not helper.
	reach := cg.ReachesAny(func(fn *types.Func) bool {
		return fn.Name() == "Tick"
	})
	for _, name := range []string{"callgraph.dispatch", "callgraph.viaValue"} {
		if !reach[nodeByName(name).Fn] {
			t.Errorf("ReachesAny: %s should reach Tick", name)
		}
	}
	if reach[nodeByName("callgraph.helper").Fn] {
		t.Error("ReachesAny: helper should not reach Tick")
	}

	// Determinism: Ordered must be sorted by position.
	for i := 1; i < len(cg.Ordered); i++ {
		a, b := cg.Ordered[i-1], cg.Ordered[i]
		af := prog.Fset.Position(a.Decl.Pos())
		bf := prog.Fset.Position(b.Decl.Pos())
		if af.Filename > bf.Filename || (af.Filename == bf.Filename && af.Offset > bf.Offset) {
			t.Errorf("Ordered not sorted: %s before %s", FuncDisplayName(a.Fn), FuncDisplayName(b.Fn))
		}
	}
}
