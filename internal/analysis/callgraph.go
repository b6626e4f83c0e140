package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared call-graph engine every interprocedural
// analyzer builds on. The graph is computed once per loaded Program
// (lazily, cached) so the whole nova-vet suite pays for one traversal
// of the syntax trees regardless of how many analyzers consume it.
//
// Edges are resolved conservatively in three ways:
//
//   - static calls: `f(x)` and `recv.M(x)` resolve through the type
//     checker's Uses map to the concrete *types.Func;
//   - method/function values: `h := m.handler` (or storing a method in
//     a struct field, as the kernel does with EC.Run) adds an edge from
//     the enclosing function to the referenced function, on the theory
//     that a function whose value escapes may be called;
//   - interface calls: a call through an interface method fans out to
//     every concrete method in the program whose receiver type
//     implements the interface.
//
// The result over-approximates the dynamic call graph, which is the
// right direction for both consumers: chargecheck wants "some charge
// path exists" (extra edges can only make it pass where a human would
// agree a path exists), and taint wants "could guest data reach this
// sink" (extra edges only add candidate flows, which the verifier then
// reads).

// CallEdge is one resolved call (or function-value reference) from
// Caller to Callee. Site is nil for value references.
type CallEdge struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
	Site   *ast.CallExpr
}

// FuncNode is a function in the call graph together with its syntax.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	Out  []CallEdge
}

// CallGraph is the program-wide graph over declared functions.
type CallGraph struct {
	prog  *Program
	Nodes map[*types.Func]*FuncNode

	// Ordered lists the nodes in source-position order, so analyzers
	// that iterate the whole graph produce deterministic output.
	Ordered []*FuncNode

	// sites maps every call expression to the concrete functions it may
	// invoke (one for static calls, several for interface calls).
	sites map[*ast.CallExpr][]*types.Func

	// impls caches interface-method resolution.
	impls map[*types.Func][]*types.Func

	// named is every non-interface named type declared in the program,
	// used to resolve interface calls to their implementations.
	named []*types.Named
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// Node returns the graph node for fn, or nil if fn has no body in the
// program (stdlib, interface methods).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.Nodes[fn] }

// CalleesAt returns the concrete functions the call expression may
// invoke: one for a static call, all implementations for an interface
// call, nothing for builtins and conversions.
func (g *CallGraph) CalleesAt(call *ast.CallExpr) []*types.Func { return g.sites[call] }

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:  prog,
		Nodes: make(map[*types.Func]*FuncNode),
		sites: make(map[*ast.CallExpr][]*types.Func),
		impls: make(map[*types.Func][]*types.Func),
	}
	// Pass 0: collect declared functions and named types.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						g.Nodes[fn] = &FuncNode{Fn: fn, Pkg: pkg, Decl: fd}
					}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
	}
	for _, node := range g.Nodes {
		g.Ordered = append(g.Ordered, node)
	}
	sort.Slice(g.Ordered, func(i, j int) bool {
		a := prog.Fset.Position(g.Ordered[i].Decl.Pos())
		b := prog.Fset.Position(g.Ordered[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	// Pass 1: edges.
	for _, node := range g.Ordered {
		g.collectEdges(node)
	}
	return g
}

// collectEdges walks one function body recording call and value edges.
func (g *CallGraph) collectEdges(node *FuncNode) {
	info := node.Pkg.Info
	// Identifiers appearing in call position; references outside this
	// set are function values.
	callFuns := make(map[*ast.Ident]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		callFuns[id] = true
		callee, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		for _, c := range g.resolve(callee) {
			g.addEdge(node, c, call.Pos(), call)
			g.sites[call] = append(g.sites[call], c)
		}
		return true
	})
	// Function/method values: any further reference to a *types.Func.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		for _, c := range g.resolve(fn) {
			g.addEdge(node, c, id.Pos(), nil)
		}
		return true
	})
}

func (g *CallGraph) addEdge(node *FuncNode, callee *types.Func, pos token.Pos, site *ast.CallExpr) {
	node.Out = append(node.Out, CallEdge{Caller: node.Fn, Callee: callee, Pos: pos, Site: site})
}

// resolve expands an interface method into its concrete implementations
// (plus nothing for the abstract method itself); a concrete function
// resolves to itself, and an instantiation of a generic function or
// method to the generic declaration whose body the graph holds.
func (g *CallGraph) resolve(fn *types.Func) []*types.Func {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return []*types.Func{fn}
	}
	recv := sig.Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return []*types.Func{fn}
	}
	if cached, ok := g.impls[fn]; ok {
		return cached
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range g.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if msig, ok := m.Type().(*types.Signature); ok && msig.Recv() != nil && types.IsInterface(msig.Recv().Type()) {
			continue // embedded interface: still abstract
		}
		out = append(out, m)
	}
	g.impls[fn] = out
	return out
}

// ReachesAny computes, by fixpoint over the edges, the set of functions
// from which some function satisfying pred is reachable (functions
// satisfying pred are themselves included).
func (g *CallGraph) ReachesAny(pred func(*types.Func) bool) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	for fn, node := range g.Nodes {
		if pred(fn) {
			reach[fn] = true
		}
		for _, e := range node.Out {
			if pred(e.Callee) {
				reach[fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.Nodes {
			if reach[fn] {
				continue
			}
			for _, e := range node.Out {
				if reach[e.Callee] {
					reach[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// FuncDisplayName renders a function as package.(*Recv).Name or
// package.Name for diagnostics, with the module prefix trimmed.
func FuncDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		path = strings.TrimPrefix(path, ModulePath+"/internal/")
		path = strings.TrimPrefix(path, ModulePath+"/")
		if i := strings.LastIndex(path, "/"); i >= 0 {
			path = path[i+1:]
		}
		name = path + "." + name
	}
	return name
}
