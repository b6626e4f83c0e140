package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Taint is the guest-taint interprocedural dataflow analyzer: the check
// that makes NOVA's trust boundary (§1, §4 of the paper) mechanical.
// The hypervisor and VMM must treat every guest-visible value as
// hostile; in this reproduction that boundary is crossed wherever a
// VM-exit message, a decoded guest instruction, or a byte fetched from
// guest memory flows into host-side indexing, addressing or length
// arithmetic.
//
// The taint lattice:
//
//   - sources: field reads off the guest-state structs (UTCB, VMExit,
//     CPUState — matched by type name so fixtures can model them), and
//     results of the guest-memory readers (GuestRead, guestRead32,
//     ReadPhys32, FetchByte);
//   - sinks: slice/array indices, slice bounds, make() lengths, shift
//     amounts, and hw.Memory physical addresses (Read*/Write*
//     first argument);
//   - sanitizers: a bounds-check comparison or switch on (a root of)
//     the value anywhere in the sink's function, a constant mask
//     (`v & 0x7f`), a modulus, a clamping min(), or an explicit
//     `// sanitized: <why>` comment on the sink line or the line above.
//
// Propagation is interprocedural, a policy of the shared dataflow
// engine (flow.go) over the shared call graph (callgraph.go):
// per-function summaries record which parameters reach return values,
// and each function's analysis records which reach sinks, callee
// arguments and struct fields; taint facts are then pushed from the
// sources through call edges (including interface calls and method
// values) and through struct fields (field-based, receiver-insensitive
// — a guest value stored in VAHCI.clb taints every later read of .clb).
// Diagnostics print the interprocedural path in function-name form,
// which keeps messages stable across unrelated line shifts.
var Taint = &Analyzer{
	Name: "taint",
	Doc:  "guest-controlled values must not reach indices, lengths, shifts or host memory addresses unchecked",
	run:  runTaint,
}

// sourceStructTypes are the type names whose field reads yield
// guest-controlled data. Matched by name (like chargecheck's Kernel) so
// fixture packages can model them.
var sourceStructTypes = map[string]bool{
	"UTCB": true, "VMExit": true, "CPUState": true,
}

// guestReadFuncs return bytes/words read from guest memory or the
// guest instruction stream; their results are intrinsically tainted.
var guestReadFuncs = map[string]bool{
	"GuestRead": true, "guestRead32": true, "ReadPhys32": true,
	"FetchByte": true,
}

// hwMemAccessFuncs are the methods on hw.Memory (matched by receiver
// type name "Memory") whose first argument is a host-physical address —
// an address sink: guest data steering host memory access is exactly
// the DMA-style attack §4.2 rules out.
var hwMemAccessFuncs = map[string]bool{
	"Read8": true, "Read16": true, "Read32": true, "Read64": true,
	"Write8": true, "Write16": true, "Write32": true, "Write64": true,
	"ReadBytes": true, "WriteBytes": true,
}

// --- taint tokens -----------------------------------------------------

const (
	tokSrc   = byte('S') // intrinsic guest source
	tokParam = byte('P') // parameter of the analyzed function (-1 = receiver)
	tokField = byte('F') // struct field (program-global)
)

// tokKey identifies one way a value can be tainted. For sources the
// description participates in identity so distinct sources dedupe
// naturally.
type tokKey struct {
	kind  byte
	param int
	field *types.Var
	src   string
}

// sortedToks orders tokens totally: sources first (direct evidence),
// then parameters, then fields.
func sortedToks(ts vals[tokKey]) []tokKey {
	keys := make([]tokKey, 0, len(ts))
	for k := range ts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return strings.IndexByte("SPF", a.kind) < strings.IndexByte("SPF", b.kind)
		}
		if a.param != b.param {
			return a.param < b.param
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.field == b.field {
			return false
		}
		if ka, kb := fieldKey(a.field), fieldKey(b.field); ka != kb {
			return ka < kb
		}
		return a.field.Pos() < b.field.Pos()
	})
	return keys
}

func fieldKey(f *types.Var) string { return f.Pkg().Path() + "." + f.Name() }

// --- per-function flows -------------------------------------------------

type sinkRec struct {
	pos  token.Pos
	what string // "slice index", "shift amount", ...
	toks vals[tokKey]
}

type argFlow struct {
	callee *types.Func
	param  int
	toks   vals[tokKey]
}

type fieldFlow struct {
	field *types.Var
	toks  vals[tokKey]
}

// taintFlows is what one function's latest analysis found: the sinks
// its values reach and the taint it passes into callees and fields.
type taintFlows struct {
	sinks   []sinkRec
	args    []argFlow
	fields  []fieldFlow
	checked map[string]bool // expr strings bounds-checked in this function
}

// --- the analysis ------------------------------------------------------

type taintAnalysis struct {
	pass      *Pass
	cg        *CallGraph
	flows     map[*types.Func]*taintFlows
	sanitized map[*ast.File]map[int]bool // lines covered by // sanitized:
	facts     map[factKey][]string       // tainted params and fields, with a display path
}

type factKey struct {
	fn    *types.Func // nil for field facts
	param int
	field *types.Var
}

func runTaint(pass *Pass) {
	t := &taintAnalysis{
		pass:      pass,
		cg:        pass.Prog.CallGraph(),
		flows:     make(map[*types.Func]*taintFlows),
		sanitized: make(map[*ast.File]map[int]bool),
		facts:     make(map[factKey][]string),
	}
	// Phase 1: per-function return summaries on the shared engine; each
	// function's final analysis leaves its sinks and flows behind.
	newFlow[tokKey](pass.Prog, t, false).solve(t.cg.Ordered)
	// Phase 2: push taint facts from the sources through call edges
	// and struct fields.
	t.solveFacts()
	// Phase 3: report unsanitized sinks reached by active taint in the
	// target packages.
	t.report()
}

// --- the taint policy ----------------------------------------------------

func (t *taintAnalysis) input(i int) tokKey { return tokKey{kind: tokParam, param: i} }

func (t *taintAnalysis) inputOf(k tokKey) (int, bool) { return k.param, k.kind == tokParam }

// expr: field reads, arithmetic, struct literals and the clamping
// builtins depart from plain propagation.
func (t *taintAnalysis) expr(fr *frame[tokKey], e ast.Expr) (vals[tokKey], bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if isFieldSel(fr.info, e) {
			return t.evalField(fr, e), true
		}
	case *ast.BinaryExpr:
		return t.evalBinary(fr, e), true
	case *ast.CompositeLit:
		// Struct values carry taint only through their fields, which
		// recordLitFieldWrites tracks globally; unioning the element
		// taints into the value would smear one tainted field over
		// every later read of the object. Slices/arrays/maps union:
		// element reads evaluate to the container's taint.
		if tv, ok := fr.info.Types[e]; ok {
			typ := tv.Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if _, isStruct := typ.Underlying().(*types.Struct); isStruct {
				return nil, true
			}
		}
	case *ast.CallExpr:
		switch builtinName(fr.info, e) {
		case "min":
			// min() with any untainted operand clamps the result.
			out := vals[tokKey]{}
			for _, a := range e.Args {
				at := fr.eval(a)
				if len(at) == 0 {
					return nil, true
				}
				out.join(at)
			}
			return out, true
		case "max":
			out := vals[tokKey]{}
			for _, a := range e.Args {
				out.join(fr.eval(a))
			}
			return out, true
		}
	}
	return nil, false
}

func (t *taintAnalysis) elem(v vals[tokKey]) vals[tokKey] { return v }

// callee: guest-memory readers are sources; functions without a body
// in the program (stdlib) pass taint in to taint out.
func (t *taintAnalysis) callee(fr *frame[tokKey], call *ast.CallExpr, c *types.Func, out []vals[tokKey]) bool {
	if c != nil && guestReadFuncs[c.Name()] {
		out[0].add(tokKey{kind: tokSrc, src: "guest memory via " + c.Name()}, lvlDirect)
		return true
	}
	if c == nil || t.cg.Node(c) == nil {
		return fr.passThrough(call, out)
	}
	return false
}

// bind: writing a tainted element taints the whole local slice. Writes
// through a struct field are deliberately NOT smeared onto the base
// object — the field-based global facts (recordFieldWrites) track that
// channel precisely; smearing the receiver would flag every later
// access through the object.
func (t *taintAnalysis) bind(fr *frame[tokKey], obj types.Object, v vals[tokKey], via storeVia) vals[tokKey] {
	if via == viaField {
		return nil
	}
	return v
}

// stmt: ranging over a tainted map taints its keys too.
func (t *taintAnalysis) stmt(fr *frame[tokKey], n ast.Node) bool {
	r, ok := n.(*ast.RangeStmt)
	if !ok || r.Key == nil {
		return false
	}
	if tv, ok := fr.info.Types[r.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return fr.bind(r.Key, fr.eval(r.X))
		}
	}
	return false
}

// collectChecked gathers the canonical strings of expressions that
// appear under a comparison or as a switch tag — the bounds-check
// sanitizer set.
func collectChecked(fr *frame[tokKey]) map[string]bool {
	checked := make(map[string]bool)
	fr.inspect(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				addRootStrings(fr.info, checked, n.X)
				addRootStrings(fr.info, checked, n.Y)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				addRootStrings(fr.info, checked, n.Tag)
			}
		}
	})
	return checked
}

// addRootStrings records every maximal ident/selector chain inside e.
// Conversions are transparent (`int(x) < n` checks x), but other calls
// are not: `len(w) < 5` bounds w's length, not its element values, so
// recursing into call arguments would sanitize far too much.
func addRootStrings(info *types.Info, set map[string]bool, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		set[e.Name] = true
	case *ast.SelectorExpr:
		if s := chainString(e); s != "" {
			set[s] = true
			return
		}
		addRootStrings(info, set, e.X)
	case *ast.ParenExpr:
		addRootStrings(info, set, e.X)
	case *ast.StarExpr:
		addRootStrings(info, set, e.X)
	case *ast.UnaryExpr:
		addRootStrings(info, set, e.X)
	case *ast.BinaryExpr:
		addRootStrings(info, set, e.X)
		addRootStrings(info, set, e.Y)
	case *ast.IndexExpr:
		addRootStrings(info, set, e.X)
		addRootStrings(info, set, e.Index)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			for _, a := range e.Args {
				addRootStrings(info, set, a)
			}
		}
	}
}

// chainString renders a pure ident/selector chain ("a.b.c"), or "".
func chainString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return chainString(e.X)
	}
	return ""
}

// evalField handles field reads: the base's taint carries through, a
// read off a guest-state struct is an intrinsic source, and a read of a
// program-declared field picks up that field's global taint.
func (t *taintAnalysis) evalField(fr *frame[tokKey], e *ast.SelectorExpr) vals[tokKey] {
	out := vals[tokKey]{}
	out.join(fr.eval(e.X))
	if tn := sourceTypeName(fr.info, e.X); tn != "" {
		out.add(tokKey{kind: tokSrc, src: fmt.Sprintf("guest-state field %s.%s", tn, e.Sel.Name)}, lvlDirect)
	}
	if f, ok := fr.info.Selections[e].Obj().(*types.Var); ok && isProgramField(f) {
		out.add(tokKey{kind: tokField, field: f}, lvlDirect)
	}
	return out
}

// sourceTypeName reports the guest-state type name if expr's type
// (after pointer stripping) is one of the source structs.
func sourceTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	typ := tv.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	if sourceStructTypes[named.Obj().Name()] {
		return named.Obj().Name()
	}
	return ""
}

// isProgramField restricts field-based taint to structs declared in the
// analyzed program (module or fixture packages), not the stdlib.
func isProgramField(f *types.Var) bool {
	return f.Pkg() != nil && (strings.HasPrefix(f.Pkg().Path(), ModulePath) ||
		strings.HasPrefix(f.Pkg().Path(), "fixture/"))
}

func (t *taintAnalysis) evalBinary(fr *frame[tokKey], e *ast.BinaryExpr) vals[tokKey] {
	switch e.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
		token.LAND, token.LOR:
		return nil // booleans carry no index taint
	case token.AND:
		// A constant mask bounds the value: sanitized.
		if isConstExpr(fr.info, e.X) || isConstExpr(fr.info, e.Y) {
			return nil
		}
	case token.REM:
		// x % y is bounded by y; taint follows the modulus only.
		return fr.eval(e.Y)
	}
	out := vals[tokKey]{}
	out.join(fr.eval(e.X))
	out.join(fr.eval(e.Y))
	return out
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// --- flows and sinks ----------------------------------------------------

// collect records, against the settled environment: sink hits, taint
// entering call arguments, and taint stored into fields. None of it is
// visible to callers, whose summaries depend only on the results.
func (t *taintAnalysis) collect(fr *frame[tokKey]) bool {
	f := &taintFlows{checked: collectChecked(fr)}
	t.flows[fr.node.Fn] = f
	fr.inspect(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := fr.info.Types[n.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer: // *[N]T indexing
					t.checkSink(fr, f, n.Index, n.Pos(), "slice/array index")
				}
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil {
					t.checkSink(fr, f, bound, n.Pos(), "slice bound")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.SHL || n.Op == token.SHR {
				t.checkSink(fr, f, n.Y, n.Pos(), "shift amount")
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				t.checkSink(fr, f, n.Rhs[0], n.Pos(), "shift amount")
			}
			t.recordFieldWrites(fr, f, n)
		case *ast.CompositeLit:
			t.recordLitFieldWrites(fr, f, n)
		case *ast.CallExpr:
			if builtinName(fr.info, n) == "make" {
				for _, a := range n.Args[1:] {
					t.checkSink(fr, f, a, n.Pos(), "make length")
				}
			}
			t.recordCallFlows(fr, f, n)
		}
	})
	return false
}

// checkSink records a sink hit unless the value is constant or
// sanitized.
func (t *taintAnalysis) checkSink(fr *frame[tokKey], f *taintFlows, e ast.Expr, pos token.Pos, what string) {
	if isConstExpr(fr.info, e) {
		return
	}
	if toks := fr.eval(e); len(toks) > 0 && !t.isSanitized(fr, f, e, pos) {
		f.sinks = append(f.sinks, sinkRec{pos: pos, what: what, toks: toks})
	}
}

// isSanitized reports whether a sink value passed a bounds check (a
// root of the expression appears under a comparison or switch in this
// function) or carries a `// sanitized:` annotation on its line or the
// line above.
func (t *taintAnalysis) isSanitized(fr *frame[tokKey], f *taintFlows, e ast.Expr, pos token.Pos) bool {
	roots := make(map[string]bool)
	addRootStrings(fr.info, roots, e)
	for r := range roots {
		if f.checked[r] {
			return true
		}
	}
	file := fileOf(fr.node.Pkg, pos)
	if file == nil {
		return false
	}
	lines := t.sanitizedLinesFor(file)
	line := t.pass.Prog.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// sanitizedLinesFor caches, per file, the lines covered by a
// `// sanitized: <why>` annotation (the comment's lines themselves, so
// both trailing comments and comment-above forms work).
func (t *taintAnalysis) sanitizedLinesFor(f *ast.File) map[int]bool {
	if lines, ok := t.sanitized[f]; ok {
		return lines
	}
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		if !strings.Contains(cg.Text(), "sanitized:") {
			continue
		}
		start := t.pass.Prog.Fset.Position(cg.Pos()).Line
		end := t.pass.Prog.Fset.Position(cg.End()).Line
		for l := start; l <= end; l++ {
			lines[l] = true
		}
	}
	t.sanitized[f] = lines
	return lines
}

// recordFieldWrites captures taint stored into struct fields through
// assignment statements.
func (t *taintAnalysis) recordFieldWrites(fr *frame[tokKey], f *taintFlows, n *ast.AssignStmt) {
	for i, set := range fr.assigned(n) {
		if len(set) == 0 {
			continue
		}
		target := n.Lhs[i]
		for {
			if idx, ok := target.(*ast.IndexExpr); ok {
				target = idx.X
				continue
			}
			if star, ok := target.(*ast.StarExpr); ok {
				target = star.X
				continue
			}
			break
		}
		sel, ok := target.(*ast.SelectorExpr)
		if !ok || !isFieldSel(fr.info, sel) {
			continue
		}
		field, ok := fr.info.Selections[sel].Obj().(*types.Var)
		if !ok || !isProgramField(field) || t.isSanitized(fr, f, n.Rhs[min(i, len(n.Rhs)-1)], n.Pos()) {
			continue
		}
		f.fields = append(f.fields, fieldFlow{field: field, toks: set})
	}
}

// recordLitFieldWrites captures taint stored into fields via composite
// literals (DiskRequest{LBA: guestLBA, ...}).
func (t *taintAnalysis) recordLitFieldWrites(fr *frame[tokKey], f *taintFlows, n *ast.CompositeLit) {
	tv, ok := fr.info.Types[n]
	if !ok {
		return
	}
	typ := tv.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, el := range n.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		set := fr.eval(kv.Value)
		if len(set) == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == key.Name && isProgramField(field) {
				if !t.isSanitized(fr, f, kv.Value, kv.Pos()) {
					f.fields = append(f.fields, fieldFlow{field: field, toks: set})
				}
				break
			}
		}
	}
}

// recordCallFlows captures taint entering callee parameters, for the
// fact propagation. Receiver taint is deliberately not propagated as a
// fact: an object is "tainted" only through specific fields, and those
// travel via the field-based channel.
func (t *taintAnalysis) recordCallFlows(fr *frame[tokKey], f *taintFlows, call *ast.CallExpr) {
	var args []vals[tokKey]
	for _, callee := range t.cg.CalleesAt(call) {
		if t.cg.Node(callee) == nil {
			continue // no body: nothing to propagate into
		}
		if args == nil {
			args = make([]vals[tokKey], len(call.Args))
			for j, a := range call.Args {
				if !t.isSanitized(fr, f, a, a.Pos()) {
					args[j] = fr.eval(a)
				}
			}
		}
		for j, set := range args {
			if len(set) > 0 {
				f.args = append(f.args, argFlow{callee: callee, param: j, toks: set})
			}
		}
	}
}

// --- phase 2: fact propagation -------------------------------------------

// solveFacts pushes taint from the sources through the recorded call
// and field flows, breadth first: a parameter or field is tainted once
// some flow carries an active token into it. Facts only accumulate, so
// the propagation terminates; each keeps the first (shortest) path
// that explains it, for display.
func (t *taintAnalysis) solveFacts() {
	type edge struct {
		from   *types.Func
		toks   vals[tokKey]
		target factKey
		step   string
	}
	var edges []edge
	for _, node := range t.cg.Ordered {
		f := t.flows[node.Fn]
		if f == nil {
			continue
		}
		for _, af := range f.args {
			edges = append(edges, edge{node.Fn, af.toks, factKey{fn: af.callee, param: af.param},
				fmt.Sprintf("passed to parameter %s of %s", calleeParamName(af.callee, af.param), FuncDisplayName(af.callee))})
		}
		for _, ff := range f.fields {
			edges = append(edges, edge{node.Fn, ff.toks, factKey{param: -2, field: ff.field},
				fmt.Sprintf("stored into field %s (in %s)", fieldQualName(ff.field), FuncDisplayName(node.Fn))})
		}
	}
	var queue []factKey
	activate := func(key factKey, path []string) {
		if _, ok := t.facts[key]; !ok {
			t.facts[key] = path
			queue = append(queue, key)
		}
	}
	triggers := make(map[factKey][]int)
	for i, e := range edges {
		for _, k := range sortedToks(e.toks) {
			if k.kind == tokSrc {
				activate(e.target, extendPath(sourcePath(e.from, k), e.step))
			} else {
				key := tokenKey(e.from, k)
				triggers[key] = append(triggers[key], i)
			}
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, i := range triggers[key] {
			activate(edges[i].target, extendPath(t.facts[key], edges[i].step))
		}
	}
}

// tokenKey is the fact a parameter or field token of fn depends on.
func tokenKey(fn *types.Func, k tokKey) factKey {
	if k.kind == tokField {
		return factKey{param: -2, field: k.field}
	}
	return factKey{fn: fn, param: k.param}
}

// sourcePath is the display path of a source token read in fn.
func sourcePath(fn *types.Func, k tokKey) []string {
	return []string{fmt.Sprintf("%s (in %s)", k.src, FuncDisplayName(fn))}
}

// calleeParamName names a callee parameter for path rendering.
func calleeParamName(fn *types.Func, idx int) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return fmt.Sprintf("#%d", idx)
	}
	if name := sig.Params().At(min(idx, sig.Params().Len()-1)).Name(); name != "" {
		return name
	}
	return fmt.Sprintf("#%d", idx)
}

func fieldQualName(f *types.Var) string {
	name := f.Name()
	if owner := fieldOwner(f); owner != "" {
		name = owner + "." + name
	}
	return name
}

// fieldOwner finds the struct type name declaring f, best-effort.
func fieldOwner(f *types.Var) string {
	if f.Pkg() == nil {
		return ""
	}
	scope := f.Pkg().Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name()
			}
		}
	}
	return ""
}

// --- phase 3: reporting -------------------------------------------------

func (t *taintAnalysis) report() {
	targets := make(map[*Package]bool, len(t.pass.Targets))
	for _, pkg := range t.pass.Targets {
		targets[pkg] = true
	}
	for _, node := range t.cg.Ordered {
		f := t.flows[node.Fn]
		if !targets[node.Pkg] || f == nil {
			continue
		}
		for _, sink := range f.sinks {
			for _, k := range sortedToks(sink.toks) {
				path := sourcePath(node.Fn, k)
				if k.kind != tokSrc {
					var ok bool
					if path, ok = t.facts[tokenKey(node.Fn, k)]; !ok {
						continue
					}
				}
				path = append(path[:len(path):len(path)], fmt.Sprintf("reaches %s in %s", sink.what, FuncDisplayName(node.Fn)))
				t.pass.Reportf(sink.pos, "guest-controlled value reaches %s without bounds check or // sanitized: annotation; path: %s", sink.what, strings.Join(path, " -> "))
				break // one report per sink site
			}
		}
	}
}
