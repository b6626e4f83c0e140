package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Concurrency keeps the simulation single-goroutine. The determinism
// and isolation arguments both assume sequential execution: a
// goroutine, a channel, a mutex or an atomic anywhere in sim-critical
// code would introduce host-scheduling order into the simulated
// machine's observable results, and two machines in one process
// (TestTwoMachineInterleavedDeterminism) would stop being independent.
// Concurrency may enter only through an audited gate that announces
// itself: a function annotated `// epoch-barrier: <why>` in its doc
// comment may use any primitive; everywhere else in a sim-critical
// package the analyzer forbids:
//
//   - go statements;
//   - channel operations (send, receive, close, select, range over a
//     channel, make(chan));
//   - any use of sync or sync/atomic (including types in struct
//     fields — a mutex in per-machine state is latent concurrency);
//   - scheduling calls (runtime.Gosched and friends, time.Sleep).
var Concurrency = &Analyzer{
	Name: "concurrency",
	Doc:  "forbid goroutines, channels, sync/atomic and scheduling calls in sim-critical packages outside // epoch-barrier: functions",
	run:  runConcurrency,
}

// schedFuncs are the runtime package's scheduling-visible calls.
var schedFuncs = map[string]bool{
	"Gosched": true, "Goexit": true, "GOMAXPROCS": true,
	"LockOSThread": true, "UnlockOSThread": true, "NumGoroutine": true,
}

func runConcurrency(pass *Pass) {
	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if funcAnnotated(fd, markEpochBarrier) {
						continue // the audited gate
					}
					checkConcurrency(pass, pkg, fd)
					continue
				}
				checkConcurrency(pass, pkg, decl)
			}
		}
	}
}

func checkConcurrency(pass *Pass, pkg *Package, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in sim-critical package %s (parallelism may only enter through the // epoch-barrier: gate)", pkg.Path)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select statement in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "close":
						pass.Reportf(n.Pos(), "channel close in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
					case "make":
						if len(n.Args) > 0 {
							if tv, ok := pkg.Info.Types[n.Args[0]]; ok && tv.IsType() {
								if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
									pass.Reportf(n.Pos(), "channel construction in sim-critical package %s (cross-goroutine communication outside the epoch-barrier gate)", pkg.Path)
								}
							}
						}
					}
				}
			}
		case *ast.SelectorExpr:
			obj := pkg.Info.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				pass.Reportf(n.Pos(), "sync/atomic use %s.%s in sim-critical package %s (host synchronization outside the epoch-barrier gate)", obj.Pkg().Name(), obj.Name(), pkg.Path)
			case "runtime":
				if schedFuncs[obj.Name()] {
					pass.Reportf(n.Pos(), "scheduling call runtime.%s in sim-critical package %s (host scheduling must not influence the simulation)", obj.Name(), pkg.Path)
				}
			case "time":
				if obj.Name() == "Sleep" {
					pass.Reportf(n.Pos(), "scheduling call time.Sleep in sim-critical package %s (host scheduling must not influence the simulation)", pkg.Path)
				}
			}
		}
		return true
	})
}
