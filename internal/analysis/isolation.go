package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Isolation verifies the static precondition for several machines
// sharing one process (TestTwoMachineInterleavedDeterminism): every
// write performed on a machine's simulation step path must land in
// state reachable from that machine's own object graph. The step roots are the per-machine
// entry points (the kernel run loop, the bare-metal run loop, the VMM
// exit dispatcher); from each root the write-effect summaries
// (effects.go) give the transitive set of regions the path can store
// to. Receiver-owned and parameter-owned writes are confined by
// construction — the root's receiver IS the machine — so the findings
// are exactly the package-global writes, the one channel through which
// two machines in one process can observe each other.
//
// Escape hatches, both audit records with mandatory rationale:
//
//   - a var annotated `// shared-ok: <why>` is accepted shared state
//     (globalstate enforces the same annotation on its declaration);
//   - a store line annotated `// shared: <why>` is the explicit
//     cross-machine rendezvous (the simulated NIC/disk server channel)
//     and is accepted at that line only.
var Isolation = &Analyzer{
	Name: "isolation",
	Doc:  "the per-machine step path must write only machine-reachable state (package-global writes need // shared: or // shared-ok:)",
	run:  runIsolation,
}

// isolationRoots names the per-machine simulation entry points by
// receiver type and method, like capcheck's Kernel matching, so fixture
// packages can model them. Every function reachable from one of these
// is "on the step path" of some machine.
var isolationRoots = map[string]bool{
	"Kernel.Run":     true, // microhypervisor scheduling loop
	"Kernel.RunAll":  true, // multi-CPU variant
	"BareMetal.Run":  true, // native (unvirtualized) run loop
	"VMM.handleExit": true, // VMM exit dispatch (invoked via IPC portal)
}

func runIsolation(pass *Pass) {
	eff := pass.Prog.Effects()
	cg := pass.Prog.CallGraph()
	annots := newAnnotLines(pass.Prog.Fset)
	targets := make(map[*Package]bool, len(pass.Targets))
	for _, pkg := range pass.Targets {
		targets[pkg] = true
	}

	type finding struct {
		pos  token.Pos
		v    *types.Var
		path []string
		root string
	}
	seen := make(map[string]bool) // (var, pos) dedupe across roots
	var findings []finding

	for _, node := range cg.Ordered {
		if !targets[node.Pkg] || !isolationRoots[rootKey(node.Fn)] {
			continue
		}
		s := eff.Summary(node.Fn)
		if s == nil {
			continue
		}
		for _, r := range s.WriteRegions() {
			if r.Kind != RegionGlobal {
				continue
			}
			w := s.Writes[r]
			key := globalVarKey(r.Global) + "@" + pass.Prog.Fset.Position(w.Pos).String()
			if seen[key] {
				continue
			}
			seen[key] = true
			// The write site's own package decides the annotations: the
			// var's declaring package for shared-ok, the storing file's
			// line for shared.
			declPkg := packageOf(pass.Prog, r.Global)
			if declPkg != nil && varAnnotated(declPkg, r.Global, markSharedOK) {
				continue
			}
			sitePkg := packageAt(pass.Prog, w.Pos)
			if sitePkg != nil && annots.covers(sitePkg, w.Pos, markSharedWrite) {
				continue
			}
			findings = append(findings, finding{
				pos: w.Pos, v: r.Global, path: w.Path, root: FuncDisplayName(node.Fn),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a := pass.Prog.Fset.Position(findings[i].pos)
		b := pass.Prog.Fset.Position(findings[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, f := range findings {
		// Path is innermost-first; render root -> ... -> store.
		chain := append([]string{}, f.path...)
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		pass.Reportf(f.pos, "write to package-level var %s on the %s step path (via %s) escapes the machine's object graph; two machines in one process would couple here — move the state into the machine or annotate // shared: <why>", f.v.Name(), f.root, strings.Join(chain, " -> "))
	}
}

// rootKey renders fn as RecvType.Name for isolationRoots matching.
func rootKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return fn.Name()
	}
	return named.Obj().Name() + "." + fn.Name()
}

// packageOf finds the loaded Package declaring obj.
func packageOf(prog *Program, obj types.Object) *Package {
	if obj.Pkg() == nil {
		return nil
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types == obj.Pkg() {
			return pkg
		}
	}
	return nil
}

// packageAt finds the loaded Package whose files contain pos.
func packageAt(prog *Program, pos token.Pos) *Package {
	for _, pkg := range prog.Pkgs {
		if fileOf(pkg, pos) != nil {
			return pkg
		}
	}
	return nil
}
