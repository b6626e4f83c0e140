package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"nova/internal/cap"
)

// Capflow is the interprocedural capability-rights and object-lifetime
// verifier of the hypercall layer. Where capcheck proves every hypercall
// *performs* a validation, capflow proves the validation is the *right*
// one: it tracks each looked-up kernel object through the hypercall's
// dataflow (into callees, through struct fields and containers) and
// checks three rules against the declared operation→rights contract in
// caprights.go:
//
//  1. sufficiency — every operation the hypercall performs on the
//     object downstream (state writes, invocations, retained
//     references) is covered by the rights the lookup demanded;
//  2. least privilege — rights the lookup demanded but no downstream
//     operation exercises are flagged, so the hypercall interface
//     never over-requests authority;
//  3. lifetime — a looked-up (or hypercall-created) object reference
//     may not be stored into state that outlives the hypercall unless
//     the store carries a `// caphold: <why>; teardown=<Func>`
//     annotation whose teardown function is a destruction root
//     (Kernel.DestroyPD, Space/MemSpace/IOSpace Destroy/Revoke) or
//     reachable from one — i.e. some destruction path provably
//     releases the reference.
//
// The analyzer also cross-checks the HypercallRights table in both
// directions (every hypercall has a row; every row corresponds to a
// validation the body performs) and flags direct capability-space
// mutations outside the Kernel/cap layer as hypercall bypasses.
//
// Dataflow model: capflow is a policy of the shared dataflow engine
// (flow.go). Values are tracked at levels — direct (the object itself),
// capResult (a Capability struct whose .Obj is the object), carrier (a
// struct or slice holding the object), graph (storage merely reachable
// from the object) — and call sites compose per-function flow summaries
// (escapes, invocations, result flows), solved in the engine's rounds
// over every function a hypercall reaches, while state writes are
// mapped through the shared write-effect summaries. Function literals
// are skipped (closures are not tracked); cap-package functions and
// Space/MemSpace/IOSpace methods record no escapes (the mapping
// database is the revocation-tracked holder of capability references,
// not a lifetime leak).
var Capflow = &Analyzer{
	Name: "capflow",
	Doc:  "hypercalls must exercise exactly the rights they demand and may not retain looked-up objects without an audited teardown",
	run:  runCapflow,
}

// Tracking levels, ordered by how directly a value exposes a tracked
// object. Composition takes the minimum: reading a field of a carrier
// yields at most graph-level reachability, never the object itself.
const (
	// lvlGraph: storage reachable from the object (sm.waiters, ec.VCPU).
	lvlGraph level = iota + 1
	// lvlCarrier: a struct/slice/map holding a reference to the object.
	lvlCarrier
	// lvlCapResult: a cap.Capability whose Obj field is the object.
	lvlCapResult
	// lvlDirect (flow.go): the object reference itself.
)

// capKey is what a capflow value tracks: a root of the hypercall under
// check, or (root == nil) an input of a summarized function — its
// receiver (in == -1) or parameter in.
type capKey struct {
	root *capRoot
	in   int
}

// capRoot is one tracked origin inside a hypercall frame: a capability
// lookup or an object creation.
type capRoot struct {
	pos       token.Pos
	param     int   // validated param index (caller = 0); -1 selector lookup; -2 creation
	objType   int64 // folded cap.ObjType value; -1 unknown
	need      cap.Rights
	needKnown bool
	creation  bool
	bare      bool // bare Lookup(sel): lifetime rule only, no table row

	ops     []capOp
	escapes []capEscape
	escaped bool
}

// capOp is one operation the hypercall performs on a root's object.
type capOp struct {
	kind opKind
	pos  token.Pos
	path []string // call chain to the op, innermost first; nil = in the hypercall body
}

// capEscape is one store of a root's reference into outliving state.
type capEscape struct {
	pos  token.Pos
	path []string
	dest string
}

// flow summaries -----------------------------------------------------------

type escTargetKind uint8

const (
	escRecv escTargetKind = iota
	escGlobal
	escParam
)

// flowFact is one caller-visible fact of a summary: input `in` is
// invoked through (inv), or stored into state that outlives the
// function (an escape to tkind/tparam).
type flowFact struct {
	in     int
	inv    bool
	tkind  escTargetKind
	tparam int
	pos    token.Pos
}

// flowSummary is the capflow-side per-function summary, complementing
// the write-effect summary and the engine's result values: where may
// inputs escape to, and which inputs are invoked through. Each fact
// keeps the first call chain that explained it, for display.
type flowSummary struct {
	facts []flowFact
	paths [][]string
	seen  map[flowFact]bool
}

func (s *flowSummary) add(f flowFact, path []string) bool {
	if s.seen[f] {
		return false
	}
	s.seen[f] = true
	s.facts = append(s.facts, f)
	s.paths = append(s.paths, path)
	return true
}

// chainSuffix renders an innermost-first call chain outermost-first for
// diagnostics. Empty for operations in the hypercall body itself.
func chainSuffix(path []string) string {
	if len(path) == 0 {
		return ""
	}
	rev := make([]string, len(path))
	for i, p := range path {
		rev[len(path)-1-i] = p
	}
	return " (via " + strings.Join(rev, " -> ") + ")"
}

// analyzer state -----------------------------------------------------------

type capflowState struct {
	prog  *Program
	cg    *CallGraph
	eff   *Effects
	fl    *flow[capKey]
	sums  map[*types.Func]*flowSummary
	reach map[*types.Func]bool // functions reachable from a destruction root
	hc    *hypercall           // the hypercall under check; nil while summarizing
}

// hypercall is the tracking state of one hypercall frame.
type hypercall struct {
	lookups   map[*ast.CallExpr]*capRoot
	creations map[*ast.CompositeLit]*capRoot
	roots     []*capRoot
}

func runCapflow(pass *Pass) {
	st := &capflowState{
		prog: pass.Prog,
		cg:   pass.Prog.CallGraph(),
		eff:  pass.Prog.Effects(),
		sums: make(map[*types.Func]*flowSummary),
	}
	st.fl = newFlow[capKey](pass.Prog, st, true)
	st.computeDestroyReach()
	var hypercalls []*FuncNode
	for _, pkg := range pass.Targets {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !isHypercallMethod(pkg, fd) {
					st.checkDirectMutation(pass, pkg, fd)
				} else if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && st.cg.Node(fn) != nil {
					hypercalls = append(hypercalls, st.cg.Node(fn))
				}
			}
		}
	}
	nodes := st.summarized(hypercalls)
	for _, n := range nodes {
		st.sums[n.Fn] = &flowSummary{seen: make(map[flowFact]bool)}
	}
	st.fl.solve(nodes)
	for _, node := range hypercalls {
		st.checkHypercall(pass, node)
	}
}

// summarized lists, in call-graph order, the functions the hypercalls
// call outside function literals, transitively: the ones whose flow
// summaries the checks consult. summaryExempt functions keep a bottom
// summary and are not entered.
func (st *capflowState) summarized(hypercalls []*FuncNode) []*FuncNode {
	seen := make(map[*types.Func]bool)
	queue := append([]*FuncNode(nil), hypercalls...)
	for ; len(queue) > 0; queue = queue[1:] {
		ast.Inspect(queue[0].Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, c := range st.cg.CalleesAt(call) {
					if node := st.cg.Node(c); node != nil && !seen[c] && !summaryExempt(c) {
						seen[c] = true
						queue = append(queue, node)
					}
				}
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	}
	var out []*FuncNode
	for _, n := range st.cg.Ordered {
		if seen[n.Fn] {
			out = append(out, n)
		}
	}
	return out
}

// destruction roots --------------------------------------------------------

// isDestructionRoot reports whether fn anchors a teardown path: the
// domain-destruction hypercall or the space-level revocation primitives
// it drives.
func isDestructionRoot(fn *types.Func) bool {
	switch fn.Name() {
	case "DestroyPD":
		return funcRecvName(fn) == "Kernel"
	case "Destroy", "Revoke":
		switch funcRecvName(fn) {
		case "Space", "MemSpace", "IOSpace":
			return true
		}
	}
	return false
}

func funcRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// computeDestroyReach marks every function reachable from a destruction
// root by forward BFS over the call graph: a valid caphold teardown
// must be one of these, so some destruction path provably releases the
// held reference.
func (st *capflowState) computeDestroyReach() {
	st.reach = make(map[*types.Func]bool)
	var queue []*types.Func
	for fn := range st.cg.Nodes {
		if isDestructionRoot(fn) {
			st.reach[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := st.cg.Nodes[fn]
		if node == nil {
			continue
		}
		for _, e := range node.Out {
			if !st.reach[e.Callee] {
				st.reach[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
}

// teardownValid reports whether a function with the given name exists
// and is a destruction root or reachable from one.
func (st *capflowState) teardownValid(name string) bool {
	for fn := range st.cg.Nodes {
		if fn.Name() == name && (isDestructionRoot(fn) || st.reach[fn]) {
			return true
		}
	}
	return false
}

func (st *capflowState) packageOf(pos token.Pos) *Package {
	for _, pkg := range st.prog.Pkgs {
		if fileOf(pkg, pos) != nil {
			return pkg
		}
	}
	return nil
}

// capholdAt finds a caphold annotation on pos's line (or the line
// above) and parses its `<why>; teardown=<Func>` payload.
func (st *capflowState) capholdAt(pos token.Pos) (why, teardown string, found bool) {
	pkg := st.packageOf(pos)
	if pkg == nil {
		return "", "", false
	}
	f := fileOf(pkg, pos)
	line := st.prog.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		text := cg.Text()
		if !containsMarker(text, markCapHold) {
			continue
		}
		start := st.prog.Fset.Position(cg.Pos()).Line
		end := st.prog.Fset.Position(cg.End()).Line
		if line < start || line > end+1 {
			continue
		}
		rest := text[strings.Index(text, markCapHold)+len(markCapHold):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		parts := strings.Split(rest, ";")
		why = strings.TrimSpace(parts[0])
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if rest, ok := strings.CutPrefix(p, "teardown="); ok {
				teardown = strings.TrimSpace(rest)
			}
		}
		return why, teardown, true
	}
	return "", "", false
}

// per-function summaries ---------------------------------------------------

// summaryExempt: the cap package and the space types ARE the mapping
// database — holding capability references there is the design, tracked
// by delegation trees and released by Revoke/Destroy. Their summaries
// record no escapes (their write effects still count as operations).
func summaryExempt(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == ModulePath+"/internal/cap" {
		return true
	}
	switch funcRecvName(fn) {
	case "Space", "MemSpace", "IOSpace":
		return true
	}
	return false
}

// scanLookups finds the hypercall's capability validations: Lookup /
// LookupTyped / LookupObj calls on a Space reached from the calling
// PD's own fields. Each becomes a tracked root.
func (st *capflowState) scanLookups(fr *frame[capKey]) {
	callerVar := fr.params[0]
	fr.inspect(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		op := sel.Sel.Name
		if op != "Lookup" && op != "LookupTyped" && op != "LookupObj" {
			return
		}
		if typeNameOf(fr.info, sel.X) != "Space" || callerVar == nil || baseIdentObj(fr.info, sel.X) != callerVar {
			return
		}
		root := &capRoot{pos: call.Pos(), param: -1, objType: -1}
		switch op {
		case "LookupObj", "LookupTyped": // (obj or sel, type, need)
			if len(call.Args) != 3 {
				return
			}
			t, tok := foldInt(fr.info, call.Args[1])
			r, rok := foldInt(fr.info, call.Args[2])
			root.needKnown = tok && rok
			if tok {
				root.objType = t
			}
			if rok {
				root.need = cap.Rights(r)
			}
		case "Lookup": // (sel): untyped — lifetime rule only
			root.bare = true
		}
		if op == "LookupObj" { // validates a parameter by identity
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return
			}
			obj := fr.info.ObjectOf(id)
			if root.param = fr.paramIndex(obj); root.param < 0 {
				return
			}
			fr.bind(id, vals[capKey]{{root: root}: lvlDirect})
		}
		st.hc.roots = append(st.hc.roots, root)
		st.hc.lookups[call] = root
	})
}

// creationRoot tracks hypercall-created kernel objects (only the
// lifetime rule applies to them: a fresh object escaping into kernel
// state needs an audited teardown exactly like a looked-up one).
var kernelObjectTypes = map[string]bool{
	"PD": true, "EC": true, "SC": true, "Portal": true, "Semaphore": true,
}

func (st *capflowState) creationRoot(fr *frame[capKey], lit *ast.CompositeLit) *capRoot {
	if st.hc == nil {
		return nil
	}
	if root, ok := st.hc.creations[lit]; ok {
		return root
	}
	var root *capRoot
	if named, ok := fr.info.TypeOf(lit).(*types.Named); ok && kernelObjectTypes[named.Obj().Name()] {
		root = &capRoot{pos: lit.Pos(), param: -2, objType: -1, creation: true}
		st.hc.roots = append(st.hc.roots, root)
	}
	st.hc.creations[lit] = root
	return root
}

// the capflow policy -------------------------------------------------------

func (st *capflowState) input(i int) capKey { return capKey{in: i} }

func (st *capflowState) inputOf(k capKey) (int, bool) { return k.in, k.root == nil }

// expr: a scalar copy severs tracking; a field read exposes the object
// graph (except Capability.Obj, which IS the object); a composite
// literal carries what it holds, and a kernel-object literal in a
// hypercall is a creation root.
func (st *capflowState) expr(fr *frame[capKey], e ast.Expr) (vals[capKey], bool) {
	if isBasicExpr(fr.info, e) {
		return nil, true
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		out := vals[capKey]{}
		for k, l := range fr.eval(e.X) {
			if l == lvlCapResult && e.Sel.Name == "Obj" {
				out.add(k, lvlDirect)
			} else {
				out.add(k, lvlGraph)
			}
		}
		return out, true
	case *ast.CompositeLit:
		out := vals[capKey]{}
		if root := st.creationRoot(fr, e); root != nil {
			out.add(capKey{root: root}, lvlDirect)
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out.join(fr.eval(el).capped(lvlCarrier))
		}
		return out, true
	}
	return nil, false
}

// elem: an element of a holding container is still a carrier; of
// anything else, merely reachable.
func (st *capflowState) elem(v vals[capKey]) vals[capKey] {
	out := vals[capKey]{}
	for k, l := range v {
		if l == lvlCarrier {
			out.add(k, lvlCarrier)
		} else {
			out.add(k, lvlGraph)
		}
	}
	return out
}

// callee: a lookup yields the Capability; an unresolved call's result
// may carry any argument or the receiver, as a carrier; a function
// without a body in the program carries nothing.
func (st *capflowState) callee(fr *frame[capKey], call *ast.CallExpr, c *types.Func, out []vals[capKey]) bool {
	if root := st.lookupAt(call); root != nil {
		out[0].add(capKey{root: root}, lvlCapResult)
		return true
	}
	if c == nil {
		v := vals[capKey]{}
		for _, a := range call.Args {
			v.join(fr.eval(a).capped(lvlCarrier))
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			v.join(fr.eval(sel.X).capped(lvlCarrier))
		}
		for _, o := range out {
			o.join(v)
		}
		return true
	}
	return st.cg.Node(c) == nil
}

func (st *capflowState) lookupAt(call *ast.CallExpr) *capRoot {
	if st.hc == nil {
		return nil
	}
	return st.hc.lookups[call]
}

// bind: a store through a local's field makes that local a carrier of
// the stored roots (stashing an EC in a local struct keeps the EC
// tracked when the struct later escapes). Stores through the receiver
// or globals are not bindings — they are escapes, found by collect.
func (st *capflowState) bind(fr *frame[capKey], obj types.Object, v vals[capKey], via storeVia) vals[capKey] {
	if pv, ok := obj.(*types.Var); obj == fr.recv || ok && isPackageLevelVar(pv) {
		return nil
	}
	if via != viaNone {
		return v.capped(lvlCarrier)
	}
	return v
}

func (st *capflowState) stmt(*frame[capKey], ast.Node) bool { return false }

// collection ---------------------------------------------------------------

// targetKind classifies where a store lands.
type targetKind uint8

const (
	tgtNone targetKind = iota
	tgtRecv            // the frame's receiver: kernel state in a hypercall
	tgtGlobal
	tgtTracked // hypercall mode: an object the hypercall validated
	tgtParam
	tgtLocal
)

type storeTarget struct {
	kind  targetKind
	param int
}

func (st *capflowState) classifyTarget(fr *frame[capKey], expr ast.Expr) storeTarget {
	obj := baseIdentObj(fr.info, expr)
	switch v, _ := obj.(*types.Var); {
	case obj == nil:
		return storeTarget{kind: tgtNone}
	case obj == fr.recv:
		return storeTarget{kind: tgtRecv}
	case v != nil && isPackageLevelVar(v):
		return storeTarget{kind: tgtGlobal}
	}
	idx := fr.paramIndex(obj)
	if st.hc == nil && idx >= 0 {
		return storeTarget{kind: tgtParam, param: idx}
	}
	for _, l := range fr.env[obj] {
		if l == lvlDirect {
			return storeTarget{kind: tgtTracked}
		}
	}
	if idx >= 0 {
		return storeTarget{kind: tgtParam, param: idx}
	}
	return storeTarget{kind: tgtLocal}
}

// collect records, against the settled environment, the operations on
// and escapes of tracked references; in a summary frame it reports
// whether the summary grew.
func (st *capflowState) collect(fr *frame[capKey]) bool {
	grew := false
	fr.inspect(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, v := range fr.assigned(n) {
					st.collectWrite(fr, n.Lhs[i])
					grew = st.collectEscape(fr, n.Lhs[i], v, n.Pos()) || grew
				}
			}
		case *ast.IncDecStmt:
			st.collectWrite(fr, n.X)
		case *ast.CallExpr:
			grew = st.collectCall(fr, n) || grew
		}
	})
	return grew
}

// collectWrite records a state write through a tracked value: the
// written storage is whatever the chain base reaches (field, element or
// pointee), so direct- and graph-level roots get a write operation;
// carriers do not (writing next to an object is not writing it).
func (st *capflowState) collectWrite(fr *frame[capKey], lhs ast.Expr) {
	var base ast.Expr
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		base = x.X
	case *ast.IndexExpr:
		base = x.X
	case *ast.StarExpr:
		base = x.X
	default:
		return
	}
	for k, l := range fr.eval(base) {
		if l == lvlDirect || l == lvlGraph {
			st.onWrite(k, lhs.Pos(), nil)
		}
	}
}

// collectEscape records stores of tracked references (direct, carrier
// or capability level — graph-level reachability is not a retained
// reference) into state that outlives the call.
func (st *capflowState) collectEscape(fr *frame[capKey], lhs ast.Expr, rhs vals[capKey], pos token.Pos) bool {
	esc := retained(rhs)
	if len(esc) == 0 {
		return false
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if v, ok := fr.info.ObjectOf(id).(*types.Var); ok && isPackageLevelVar(v) {
			return st.escapeTo(fr, storeTarget{kind: tgtGlobal}, esc, pos, nil)
		}
		return false // plain local assignment: a binding, not an escape
	}
	return st.escapeTo(fr, st.classifyTarget(fr, lhs), esc, pos, nil)
}

// retained keeps the keys a value holds as a reference: carrier level
// or above.
func retained(v vals[capKey]) vals[capKey] {
	out := vals[capKey]{}
	for k, l := range v {
		if l >= lvlCarrier {
			out.add(k, l)
		}
	}
	return out
}

// escapeTo dispatches escaping roots against a classified store target.
// path is the call chain for escapes mapped from callee summaries (nil
// for stores in this frame's own body).
func (st *capflowState) escapeTo(fr *frame[capKey], tgt storeTarget, keys vals[capKey], pos token.Pos, path []string) bool {
	f := flowFact{tparam: tgt.param, pos: pos}
	switch tgt.kind {
	case tgtRecv:
		f.tkind = escRecv
		return st.onEscape(fr, keys, f, path, "kernel state")
	case tgtGlobal:
		f.tkind = escGlobal
		return st.onEscape(fr, keys, f, path, "a package-level variable")
	case tgtParam:
		f.tkind = escParam
		return st.onEscape(fr, keys, f, path, "caller-visible storage")
	case tgtTracked:
		// Storing a tracked reference into another validated object
		// (ec.SC = sc) is a state write on the stored object, not a
		// lifetime leak: the holder's own teardown governs it.
		for k := range keys {
			st.onWrite(k, pos, path)
		}
	}
	return false
}

// onEscape records an escape of each key: on its root in a hypercall
// frame, as a summary fact of its input otherwise.
func (st *capflowState) onEscape(fr *frame[capKey], keys vals[capKey], f flowFact, path []string, dest string) bool {
	grew := false
	for k := range keys {
		if k.root != nil {
			k.root.escapes = append(k.root.escapes, capEscape{pos: f.pos, path: path, dest: dest})
		} else {
			f.in = k.in
			grew = st.sums[fr.node.Fn].add(f, extendPath(path, FuncDisplayName(fr.node.Fn))) || grew
		}
	}
	return grew
}

// onWrite: callee write effects flow through the effects summaries, so
// only hypercall frames record writes.
func (st *capflowState) onWrite(k capKey, pos token.Pos, path []string) {
	if k.root != nil {
		k.root.ops = append(k.root.ops, capOp{kind: opWrite, pos: pos, path: path})
	}
}

func (st *capflowState) onInvoke(fr *frame[capKey], k capKey, pos token.Pos, path []string) bool {
	if k.root == nil {
		return st.sums[fr.node.Fn].add(flowFact{in: k.in, inv: true, pos: pos}, extendPath(path, FuncDisplayName(fr.node.Fn)))
	}
	k.root.ops = append(k.root.ops, capOp{kind: opInvoke, pos: pos, path: path})
	return false
}

func (st *capflowState) collectCall(fr *frame[capKey], call *ast.CallExpr) bool {
	if st.lookupAt(call) != nil {
		return false // the validation itself is not an operation
	}
	grew := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isInvocation(fr.info, sel) {
		for k, l := range fr.eval(sel.X) {
			if l == lvlDirect || l == lvlCapResult {
				grew = st.onInvoke(fr, k, call.Pos(), nil) || grew
			}
		}
	}
	if tv, ok := fr.info.Types[call.Fun]; ok && tv.IsType() || builtinName(fr.info, call) != "" {
		return grew
	}
	for _, c := range st.cg.CalleesAt(call) {
		if sum := st.sums[c]; sum != nil {
			for i, f := range sum.facts {
				grew = st.mapFact(fr, call, f, sum.paths[i]) || grew
			}
		}
		if st.hc != nil {
			st.mapWriteEffects(fr, call, c)
		}
	}
	return grew
}

// isInvocation reports whether sel is a method call or a call through a
// function-typed field — calling through the object either way.
func isInvocation(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	switch s.Kind() {
	case types.MethodVal:
		return true
	case types.FieldVal:
		_, isFunc := s.Type().Underlying().(*types.Signature)
		return isFunc
	}
	return false
}

// mapFact maps one callee summary fact through a call site. An
// invocation through the input invokes whatever object feeds it; for an
// escape, if a tracked reference feeds the escaping input, the store
// target is resolved in this frame (the callee's receiver/argument
// expression) and the escape re-classified here.
func (st *capflowState) mapFact(fr *frame[capKey], call *ast.CallExpr, f flowFact, path []string) bool {
	feeding := fr.arg(call, f.in)
	grew := false
	if f.inv {
		for k, l := range feeding {
			if l == lvlDirect {
				grew = st.onInvoke(fr, k, f.pos, path) || grew
			}
		}
		return grew
	}
	if feeding = retained(feeding); len(feeding) == 0 {
		return false
	}
	var target ast.Expr
	switch f.tkind {
	case escGlobal:
		return st.escapeTo(fr, storeTarget{kind: tgtGlobal}, feeding, f.pos, path)
	case escRecv:
		target = methodRecv(fr.info, call)
	case escParam:
		if f.tparam >= 0 && f.tparam < len(call.Args) {
			target = call.Args[f.tparam]
		}
	}
	if target == nil {
		return false
	}
	return st.escapeTo(fr, st.classifyTarget(fr, target), feeding, f.pos, path)
}

// mapWriteEffects turns the callee's write-effect summary into
// operations on tracked objects: a callee that writes through its
// receiver or a parameter writes whatever object the hypercall passed
// there.
func (st *capflowState) mapWriteEffects(fr *frame[capKey], call *ast.CallExpr, callee *types.Func) {
	es := st.eff.Summary(callee)
	if es == nil {
		return
	}
	for _, w := range es.Writes {
		var site vals[capKey]
		switch w.Region.Kind {
		case RegionRecv:
			site = fr.arg(call, -1)
		case RegionParam:
			site = fr.arg(call, w.Region.Param)
		}
		for k, l := range site {
			if l == lvlDirect || l == lvlGraph {
				st.onWrite(k, w.Pos, w.Path)
			}
		}
	}
}

// hypercall verification ---------------------------------------------------

func (st *capflowState) checkHypercall(pass *Pass, node *FuncNode) {
	st.hc = &hypercall{lookups: make(map[*ast.CallExpr]*capRoot), creations: make(map[*ast.CompositeLit]*capRoot)}
	fr := st.fl.frame(node)
	st.scanLookups(fr)
	fr.settle()
	st.collect(fr)
	hc := st.hc
	st.hc = nil

	fd := node.Decl
	name := fd.Name.Name
	rows, hasRow := HypercallRights[name]
	if !hasRow {
		pass.Reportf(fd.Name.Pos(), "hypercall Kernel.%s has no entry in the capability-rights table (HypercallRights in caprights.go): declare which capabilities it validates so the interface stays reviewed", name)
	} else {
		st.checkTable(pass, hc, name, rows, fd)
	}
	seen := make(map[string]bool)
	for _, root := range hc.roots {
		for _, esc := range root.escapes {
			st.checkEscape(pass, root, esc, name, seen)
		}
	}
	for _, root := range hc.roots {
		st.checkRights(pass, root, name)
	}
}

// checkTable cross-checks the declared rows against the lookups the
// body actually performs, in both directions.
func (st *capflowState) checkTable(pass *Pass, hc *hypercall, name string, rows []DeclaredLookup, fd *ast.FuncDecl) {
	matched := make([]bool, len(rows))
	for _, root := range hc.roots {
		if root.creation || root.bare || !root.needKnown {
			continue
		}
		found := false
		for i, row := range rows {
			if !matched[i] && row.Param == root.param && int64(row.Type) == root.objType && row.Need == root.need {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(root.pos, "hypercall Kernel.%s validates a %s with rights %s, but the capability-rights table declares no such lookup (update HypercallRights alongside the code)", name, objTypeName(root.objType), root.need)
		}
	}
	for i, row := range rows {
		if !matched[i] {
			pass.Reportf(fd.Name.Pos(), "the capability-rights table declares that Kernel.%s validates a %s with rights %s, but the body performs no such lookup (specification/implementation drift)", name, objTypeName(int64(row.Type)), row.Need)
		}
	}
}

// checkEscape enforces the lifetime rule on one escaping reference:
// the store must carry a well-formed caphold annotation whose teardown
// lies on a destruction path; a valid hold becomes an opStore operation
// (and therefore needs control rights at lookup time).
func (st *capflowState) checkEscape(pass *Pass, root *capRoot, esc capEscape, name string, seen map[string]bool) {
	root.escaped = true
	objDesc := "the " + objTypeName(root.objType) + " validated by this lookup"
	if root.creation {
		objDesc = "the kernel object created here"
	} else if root.objType < 0 {
		objDesc = "the object validated by this lookup"
	}
	report := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d|%s", root.pos, msg)
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(root.pos, "%s", msg)
	}
	why, teardown, found := st.capholdAt(esc.pos)
	if !found {
		report("hypercall Kernel.%s stores %s into %s%s without a caphold annotation (lifetime rule: the kernel must not retain hypercall references past the call unless the hold is audited with `// caphold: <why>; teardown=<Func>`)",
			name, objDesc, esc.dest, chainSuffix(esc.path))
		return
	}
	if why == "" || teardown == "" {
		report("hypercall Kernel.%s stores %s into %s%s under a malformed caphold annotation: the form is `// caphold: <why>; teardown=<Func>` with both parts present",
			name, objDesc, esc.dest, chainSuffix(esc.path))
		return
	}
	if !st.teardownValid(teardown) {
		report("hypercall Kernel.%s stores %s into %s%s under a caphold annotation whose teardown %s is not a destruction root (Kernel.DestroyPD or a space Destroy/Revoke) or reachable from one — no destruction path releases the held reference",
			name, objDesc, esc.dest, chainSuffix(esc.path), teardown)
		return
	}
	root.ops = append(root.ops, capOp{kind: opStore, pos: esc.pos, path: esc.path})
}

// checkRights enforces sufficiency (rule 1) and least privilege
// (rule 2) for one lookup against the operations collected downstream.
func (st *capflowState) checkRights(pass *Pass, root *capRoot, name string) {
	if !root.needKnown {
		return
	}
	ops := root.ops
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].pos != ops[j].pos {
			return ops[i].pos < ops[j].pos
		}
		if ops[i].kind != ops[j].kind {
			return ops[i].kind < ops[j].kind
		}
		return strings.Join(ops[i].path, "/") < strings.Join(ops[j].path, "/")
	})
	for _, op := range ops {
		req := opRequiredRights(op.kind, cap.ObjType(root.objType))
		if req&^root.need != 0 {
			pass.Reportf(root.pos, "hypercall Kernel.%s validates this %s with rights %s, but %s%s requires %s",
				name, objTypeName(root.objType), root.need, op.kind, chainSuffix(op.path), req)
			return // rule 2 is noise once the lookup is known insufficient
		}
	}
	used := cap.Rights(0)
	for _, op := range ops {
		used |= opRequiredRights(op.kind, cap.ObjType(root.objType))
	}
	if root.escaped {
		used |= cap.RightCtrl // any retention exercises control, audited or not
	}
	if unused := root.need &^ used; unused != 0 {
		pass.Reportf(root.pos, "hypercall Kernel.%s requests rights %s on this %s but never exercises %s (least privilege: demand only the rights the downstream operations need)",
			name, root.need, objTypeName(root.objType), unused)
	}
}

// hypercall bypass rule ----------------------------------------------------

// capMutOps are the space mutations that must stay behind the hypercall
// layer (InsertRoot is deliberately absent: it is the boot-time filler).
var capMutOps = map[string]bool{
	"Insert": true, "Delegate": true, "Revoke": true, "Remove": true, "Destroy": true,
}

var spaceTypeNames = map[string]bool{
	"Space": true, "MemSpace": true, "IOSpace": true,
}

// checkDirectMutation flags capability/resource-space mutations outside
// the Kernel and the spaces themselves: user-level components must go
// through hypercalls, where validation and accounting live.
func (st *capflowState) checkDirectMutation(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	switch recvTypeName(fd) {
	case "Kernel", "Space", "MemSpace", "IOSpace":
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !capMutOps[sel.Sel.Name] {
			return true
		}
		tname := typeNameOf(pkg.Info, sel.X)
		if !spaceTypeNames[tname] {
			return true
		}
		pass.Reportf(call.Pos(), "%s calls %s.%s directly — a hypercall-layer bypass: capability and resource spaces may only be mutated through Kernel hypercalls, which validate and account the operation", fd.Name.Name, tname, sel.Sel.Name)
		return true
	})
}

// small helpers ------------------------------------------------------------

// typeNameOf names the (pointer-stripped) named type of an expression.
func typeNameOf(info *types.Info, expr ast.Expr) string {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// baseIdentObj resolves the base identifier of a selector chain
// (caller.Caps -> caller) to its object.
func baseIdentObj(info *types.Info, expr ast.Expr) types.Object {
	e := ast.Unparen(expr)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// foldInt extracts a compile-time integer constant (the type and rights
// arguments of a lookup).
func foldInt(info *types.Info, expr ast.Expr) (int64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
