package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one dataflow engine the interprocedural analyzers
// share: effects (write regions), taint (guest-controlled values) and
// capflow (capability references). Each supplies a policy — its key
// lattice and the few places it departs from the common model — and
// the engine owns everything else:
//
//   - seeding the receiver and parameters as symbolic inputs;
//   - the flow-insensitive local propagation over assignments, value
//     specs and range statements, run to a fixpoint;
//   - the expression skeleton and call evaluation: conversions, callee
//     summaries mapped through the call site (receiver, positional or
//     variadic-tail argument), and functions without a body;
//   - the program-wide summary rounds over the call graph.
//
// Summaries start at bottom for every function with a body and only
// grow, so the rounds reach a fixpoint; each round re-analyzes only the
// functions whose callees grew. Whether a fact holds never depends on
// the path that explains it: paths are display text, truncated at
// maxPath steps. Reaching maxRounds, locally or program-wide, is an
// error that fails the suite rather than a silently partial result.

// maxRounds bounds every fixpoint the engine runs: the local
// propagation of one function and the program-wide summary rounds.
const maxRounds = 50

// maxPath is the number of steps a display path keeps.
const maxPath = 12

// extendPath appends a step to a display path. A path that reaches
// maxPath steps ends in "..." and stops growing.
func extendPath(path []string, step string) []string {
	switch {
	case len(path) >= maxPath:
		return path
	case len(path) == maxPath-1:
		step = "..."
	}
	return append(path[:len(path):len(path)], step)
}

// level grades how directly a value exposes a key. Joining keeps the
// higher level; mapping through a call site keeps the lower of the two
// hops. Analyses without grades hold every key at lvlDirect.
type level uint8

const lvlDirect level = 255

// vals is an abstract value: the keys it may carry, each at a level.
// Values returned by eval are shared; build a new one to combine them.
type vals[K comparable] map[K]level

func (v vals[K]) add(k K, l level) bool {
	if cur, ok := v[k]; ok && cur >= l {
		return false
	}
	v[k] = l
	return true
}

func (v vals[K]) join(o vals[K]) bool {
	changed := false
	for k, l := range o {
		if v.add(k, l) {
			changed = true
		}
	}
	return changed
}

// capped copies v with every level lowered to at most max.
func (v vals[K]) capped(max level) vals[K] {
	out := make(vals[K], len(v))
	for k, l := range v {
		out[k] = min(l, max)
	}
	return out
}

// storeVia says how an assignment target reaches its root variable.
type storeVia uint8

const (
	viaNone  storeVia = iota // the variable itself
	viaElem                  // through an element or a pointer
	viaField                 // through a struct field (and maybe more)
)

// policy is what one analysis supplies to the engine.
type policy[K comparable] interface {
	// input is the key of the receiver (i == -1) or parameter i;
	// inputOf inverts it.
	input(i int) K
	inputOf(k K) (int, bool)
	// expr evaluates e where the analysis departs from the skeleton;
	// ok == false falls back to the skeleton.
	expr(fr *frame[K], e ast.Expr) (v vals[K], ok bool)
	// elem is the value of an element (index or range value) of a
	// container whose value is v.
	elem(v vals[K]) vals[K]
	// callee models a call to c (nil: the call resolves to no function)
	// by joining into out, one value per result, and reports whether it
	// did; otherwise c's summary is mapped through the call site.
	callee(fr *frame[K], call *ast.CallExpr, c *types.Func, out []vals[K]) bool
	// bind narrows what an assignment stores into the variable obj;
	// an empty result binds nothing.
	bind(fr *frame[K], obj types.Object, v vals[K], via storeVia) vals[K]
	// stmt adds analysis-specific local propagation at n and reports
	// whether the environment grew.
	stmt(fr *frame[K], n ast.Node) bool
	// collect records the analysis' own facts from a settled frame and
	// reports whether a caller-visible part of the summary grew.
	collect(fr *frame[K]) bool
}

// flow is one analysis' engine instance over a program.
type flow[K comparable] struct {
	prog *Program
	cg   *CallGraph
	pol  policy[K]
	// skipLits leaves function literals out of every walk.
	skipLits bool
	// rets holds each solved function's result values.
	rets   map[*types.Func][]vals[K]
	rounds int
	err    error
}

func newFlow[K comparable](prog *Program, pol policy[K], skipLits bool) *flow[K] {
	return &flow[K]{prog: prog, cg: prog.CallGraph(), pol: pol, skipLits: skipLits,
		rets: make(map[*types.Func][]vals[K])}
}

// fail records the first fixpoint failure on the engine and the
// program, which fails the suite run.
func (fl *flow[K]) fail(format string, args ...any) {
	if fl.err == nil {
		fl.err = fmt.Errorf("analysis: "+format, args...)
		fl.prog.fail(fl.err)
	}
}

// solve runs the summary rounds over nodes (in call-graph order) to a
// fixpoint. A round re-analyzes the functions one of whose callees grew
// since their last analysis.
func (fl *flow[K]) solve(nodes []*FuncNode) {
	callers := make(map[*types.Func][]*types.Func)
	dirty := make(map[*types.Func]bool, len(nodes))
	for _, n := range nodes {
		dirty[n.Fn] = true
		rets := make([]vals[K], n.Fn.Type().(*types.Signature).Results().Len())
		for i := range rets {
			rets[i] = vals[K]{}
		}
		fl.rets[n.Fn] = rets
		for _, e := range n.Out {
			callers[e.Callee] = append(callers[e.Callee], n.Fn)
		}
	}
	for fl.rounds = 1; ; fl.rounds++ {
		if fl.rounds > maxRounds {
			fl.fail("program-wide summaries did not converge in %d rounds", maxRounds)
			return
		}
		analyzed := false
		for _, n := range nodes {
			if !dirty[n.Fn] {
				continue
			}
			dirty[n.Fn] = false
			analyzed = true
			fr := fl.frame(n)
			fr.seedInputs()
			fr.settle()
			grew := fr.collectReturns()
			if fl.pol.collect(fr) || grew {
				for _, c := range callers[n.Fn] {
					dirty[c] = true
				}
			}
		}
		if !analyzed {
			fl.rounds--
			return
		}
	}
}

// frame is one analysis of one function body.
type frame[K comparable] struct {
	fl     *flow[K]
	node   *FuncNode
	info   *types.Info
	recv   types.Object
	params []types.Object // by index; nil for unnamed parameters
	env    map[types.Object]vals[K]
}

func (fl *flow[K]) frame(node *FuncNode) *frame[K] {
	fr := &frame[K]{fl: fl, node: node, info: node.Pkg.Info, env: make(map[types.Object]vals[K])}
	fd := node.Decl
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		fr.recv = fr.info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			fr.params = append(fr.params, nil)
		}
		for _, name := range field.Names {
			fr.params = append(fr.params, fr.info.Defs[name])
		}
	}
	return fr
}

// seedInputs binds the receiver and parameters to their input keys.
func (fr *frame[K]) seedInputs() {
	if fr.recv != nil {
		fr.env[fr.recv] = vals[K]{fr.fl.pol.input(-1): lvlDirect}
	}
	for i, p := range fr.params {
		if p != nil {
			fr.env[p] = vals[K]{fr.fl.pol.input(i): lvlDirect}
		}
	}
}

// paramIndex is obj's parameter index, or -1.
func (fr *frame[K]) paramIndex(obj types.Object) int {
	for i, p := range fr.params {
		if p != nil && p == obj {
			return i
		}
	}
	return -1
}

// inspect walks the body, leaving out function literals if the
// analysis does not track closures.
func (fr *frame[K]) inspect(visit func(ast.Node)) {
	ast.Inspect(fr.node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && fr.fl.skipLits {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// settle runs the local propagation to its fixpoint.
func (fr *frame[K]) settle() {
	for round := 0; fr.propagate(); round++ {
		if round == maxRounds {
			fr.fl.fail("local propagation in %s did not converge in %d rounds", FuncDisplayName(fr.node.Fn), maxRounds)
			return
		}
	}
}

// propagate runs one pass over the body's bindings and reports whether
// the environment grew.
func (fr *frame[K]) propagate() bool {
	changed := false
	fr.inspect(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			vs := fr.assigned(n)
			for i, lhs := range n.Lhs {
				changed = fr.bind(lhs, vs[i]) || changed
			}
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				vs := fr.values(n.Values, len(n.Names))
				for i, name := range n.Names {
					changed = fr.bind(name, vs[i]) || changed
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				changed = fr.bind(n.Value, fr.fl.pol.elem(fr.eval(n.X))) || changed
			}
		}
		changed = fr.fl.pol.stmt(fr, n) || changed
	})
	return changed
}

// assigned evaluates an assignment's right-hand side per target; a
// compound assignment (x += y) keeps the target's own value too.
func (fr *frame[K]) assigned(n *ast.AssignStmt) []vals[K] {
	vs := fr.values(n.Rhs, len(n.Lhs))
	if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
		for i, lhs := range n.Lhs {
			v := vals[K]{}
			v.join(vs[i])
			v.join(fr.eval(lhs))
			vs[i] = v
		}
	}
	return vs
}

// values evaluates right-hand sides into n per-target values, expanding
// a single multi-valued expression per result position.
func (fr *frame[K]) values(rhs []ast.Expr, n int) []vals[K] {
	if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && len(rhs) == 1 && n > 1 {
		return fr.results(call, n)
	}
	// With one operand for several targets (v, ok := m[k] / x.(T) /
	// <-ch) the value slot carries the operand and the rest is fresh.
	out := make([]vals[K], n)
	for i := range min(n, len(rhs)) {
		out[i] = fr.eval(rhs[i])
	}
	return out
}

// bind joins v into the local variable an assignment target is rooted
// at, as the policy narrows it.
func (fr *frame[K]) bind(lhs ast.Expr, v vals[K]) bool {
	via := viaNone
	for e := lhs; len(v) > 0; {
		switch x := e.(type) {
		case *ast.Ident:
			obj := fr.info.ObjectOf(x)
			if obj == nil || x.Name == "_" {
				return false
			}
			if v = fr.fl.pol.bind(fr, obj, v, via); len(v) == 0 {
				return false
			}
			cur := fr.env[obj]
			if cur == nil {
				cur = vals[K]{}
				fr.env[obj] = cur
			}
			return cur.join(v)
		case *ast.SelectorExpr:
			e, via = x.X, viaField
		case *ast.IndexExpr:
			e, via = x.X, max(via, viaElem)
		case *ast.StarExpr:
			e, via = x.X, max(via, viaElem)
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
	return false
}

// eval computes an expression's value under the current environment.
func (fr *frame[K]) eval(e ast.Expr) vals[K] {
	if v, ok := fr.fl.pol.expr(fr, e); ok {
		return v
	}
	switch e := e.(type) {
	case *ast.Ident:
		return fr.env[fr.info.ObjectOf(e)]
	case *ast.ParenExpr:
		return fr.eval(e.X)
	case *ast.StarExpr:
		return fr.eval(e.X)
	case *ast.UnaryExpr:
		return fr.eval(e.X)
	case *ast.TypeAssertExpr:
		return fr.eval(e.X)
	case *ast.SliceExpr:
		return fr.eval(e.X)
	case *ast.IndexExpr:
		return fr.fl.pol.elem(fr.eval(e.X))
	case *ast.SelectorExpr:
		if isFieldSel(fr.info, e) {
			return fr.eval(e.X)
		}
		return fr.env[fr.info.Uses[e.Sel]] // pkg.Var or a method value
	case *ast.CompositeLit:
		out := vals[K]{}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out.join(fr.eval(el))
		}
		return out
	case *ast.CallExpr:
		return fr.call(e)
	}
	return nil
}

// call evaluates a call in a single-value context: conversions pass
// their operand, append carries its arguments, other builtins are
// fresh, and a multi-valued call carries all of its results.
func (fr *frame[K]) call(call *ast.CallExpr) vals[K] {
	if tv, ok := fr.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return fr.eval(call.Args[0])
		}
		return nil
	}
	if name := builtinName(fr.info, call); name != "" {
		if name != "append" {
			return nil
		}
		out := vals[K]{}
		for _, a := range call.Args {
			out.join(fr.eval(a))
		}
		return out
	}
	n := 1
	if tuple, ok := fr.info.TypeOf(call).(*types.Tuple); ok {
		n = max(n, tuple.Len())
	}
	rs := fr.results(call, n)
	out := rs[0]
	for _, r := range rs[1:] {
		out.join(r)
	}
	return out
}

// results evaluates a call into n per-result values: each callee either
// is modelled by the policy or has its summary mapped through the site.
func (fr *frame[K]) results(call *ast.CallExpr, n int) []vals[K] {
	out := make([]vals[K], n)
	for i := range out {
		out[i] = vals[K]{}
	}
	callees := fr.fl.cg.CalleesAt(call)
	if len(callees) == 0 {
		fr.fl.pol.callee(fr, call, nil, out)
		return out
	}
	for _, c := range callees {
		if fr.fl.pol.callee(fr, call, c, out) {
			continue
		}
		for i, r := range fr.fl.rets[c] {
			if i < n {
				out[i].join(fr.through(call, r))
			}
		}
	}
	return out
}

// through maps a callee-side value into this frame: inputs become the
// call site's receiver or argument values (at the lower of the two
// levels), every other key stays.
func (fr *frame[K]) through(call *ast.CallExpr, v vals[K]) vals[K] {
	out := vals[K]{}
	for k, l := range v {
		i, ok := fr.fl.pol.inputOf(k)
		if !ok {
			out.add(k, l)
			continue
		}
		for ak, al := range fr.arg(call, i) {
			out.add(ak, min(l, al))
		}
	}
	return out
}

// arg evaluates the expression a call site binds to the callee's
// receiver (i == -1) or parameter i; a variadic tail collapses onto the
// last argument.
func (fr *frame[K]) arg(call *ast.CallExpr, i int) vals[K] {
	switch {
	case i == -1:
		if x := methodRecv(fr.info, call); x != nil {
			return fr.eval(x)
		}
	case i < len(call.Args):
		return fr.eval(call.Args[i])
	case len(call.Args) > 0:
		return fr.eval(call.Args[len(call.Args)-1])
	}
	return nil
}

// passThrough is the model of a call without a summary: the result may
// carry any argument and the method receiver.
func (fr *frame[K]) passThrough(call *ast.CallExpr, out []vals[K]) bool {
	v := vals[K]{}
	for _, a := range call.Args {
		v.join(fr.eval(a))
	}
	if x := methodRecv(fr.info, call); x != nil {
		v.join(fr.eval(x))
	}
	for _, o := range out {
		o.join(v)
	}
	return true
}

// collectReturns joins the returned values into the function's result
// summaries and reports whether they grew. A return inside a function
// literal returns from the literal, so literals are not entered.
func (fr *frame[K]) collectReturns() bool {
	rets := fr.fl.rets[fr.node.Fn]
	grew := false
	ast.Inspect(fr.node.Decl.Body, func(n ast.Node) bool {
		r, ok := n.(*ast.ReturnStmt)
		if !ok {
			_, lit := n.(*ast.FuncLit)
			return !lit
		}
		var vs []vals[K]
		switch {
		case len(r.Results) > 0:
			vs = fr.values(r.Results, len(rets))
		case fr.node.Decl.Type.Results != nil: // a bare return of named results
			for _, field := range fr.node.Decl.Type.Results.List {
				if len(field.Names) == 0 {
					vs = append(vs, nil)
				}
				for _, name := range field.Names {
					vs = append(vs, fr.env[fr.info.Defs[name]])
				}
			}
		}
		for i, v := range vs {
			if i < len(rets) && rets[i].join(v) {
				grew = true
			}
		}
		return true
	})
	return grew
}

// --- small syntax helpers shared by the policies ---------------------

// isFieldSel reports whether sel selects a struct field.
func isFieldSel(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// methodRecv is the receiver expression of a method call, or nil.
func methodRecv(info *types.Info, call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return sel.X
		}
	}
	return nil
}

// builtinName names the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// isBasicExpr reports whether e has a basic type (number, string,
// bool): holding such a value is a copy that reaches no storage.
func isBasicExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isBasicKind(tv.Type)
}
