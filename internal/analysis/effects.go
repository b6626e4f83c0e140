package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the write-effect analysis the shared-state analyzers
// (globalstate, isolation) and capflow build on, as a policy of the
// shared dataflow engine (flow.go). It answers, for every function in
// the program, "where can a write performed by (or on behalf of) this
// function land?" over a four-region abstraction:
//
//   - receiver-owned state: anything reachable from the method
//     receiver's object graph (a Kernel writing its scheduler queues, a
//     device model updating its registers);
//   - parameter-owned state: anything reachable from parameter i (a
//     helper filling a caller-provided buffer);
//   - package globals: a named package-level variable, reached either
//     directly or through an alias (a pointer, slice or map handed out
//     by an accessor);
//   - local state: storage allocated inside the function (new, make,
//     composite literals, local variables). Local writes are invisible
//     to callers and are not recorded.
//
// Summaries are interprocedural: a call maps the callee's write regions
// through the call site (callee writes its receiver → the caller's
// receiver expression's region; callee writes parameter j → the
// region of argument j; global writes stay global), and return values
// carry the regions they may alias, so a write through an accessor
// result is attributed to the accessor's underlying storage.
//
// The abstraction over-approximates for its consumers: aliases are
// unioned (a value that may point into the receiver or a global is
// treated as both), the result of a function without a body in the
// program may alias any argument, an unresolved call (a function value,
// an interface with no implementation in the program) is assumed to
// write through every mutable pointer-like argument (pointer, slice,
// map, chan — not interfaces or strings, which would drown the analysis
// in error-wrapping noise), and writes inside function literals are
// charged to the enclosing declaration. Calls into the standard library
// are assumed to write nothing.

// RegionKind classifies the storage a write may reach.
type RegionKind uint8

// The region lattice. RegionLocal is the bottom: writes there stay
// invisible outside the function.
const (
	RegionLocal RegionKind = iota
	RegionRecv
	RegionParam
	RegionGlobal
)

// Region is one abstract storage location.
type Region struct {
	Kind   RegionKind
	Param  int        // valid for RegionParam
	Global *types.Var // valid for RegionGlobal
}

func (r Region) String() string {
	switch r.Kind {
	case RegionRecv:
		return "receiver"
	case RegionParam:
		return fmt.Sprintf("param#%d", r.Param)
	case RegionGlobal:
		if r.Global != nil {
			return "global " + r.Global.Name()
		}
		return "global"
	}
	return "local"
}

// regionSet is the alias set of a value: the regions its pointed-to
// storage may belong to. Empty means "local/unknown storage only".
type regionSet map[Region]level

// sortedRegions orders a region set deterministically for reporting.
func (rs regionSet) sortedRegions() []Region {
	out := make([]Region, 0, len(rs))
	for r := range rs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return regionLess(out[i], out[j]) })
	return out
}

func regionLess(a, b Region) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Param != b.Param {
		return a.Param < b.Param
	}
	return globalVarKey(a.Global) < globalVarKey(b.Global)
}

func globalVarKey(v *types.Var) string {
	if v == nil {
		return ""
	}
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	return pkg + "." + v.Name()
}

// WriteEffect is one region a function may write, with a representative
// site and the interprocedural chain that reaches it. Path[0] names the
// function containing the actual store; later entries are the callers
// the effect was mapped through, innermost first (a display path,
// truncated at maxPath steps).
type WriteEffect struct {
	Region Region
	Pos    token.Pos // the store site (stable across the mapping)
	Path   []string
	// Direct reports whether the store statement is in this function's
	// own body (globalstate classifies writers by this).
	Direct bool
}

// EffectSummary is the per-function result: the write regions and the
// regions each return value may alias.
type EffectSummary struct {
	Fn   *types.Func
	Node *FuncNode

	// Writes holds one representative effect per written region.
	Writes map[Region]*WriteEffect

	// Rets[i] is the alias set of result i — which storage a caller
	// reaches by writing through the returned value.
	Rets []regionSet
}

// WriteRegions lists the written regions in deterministic order.
func (s *EffectSummary) WriteRegions() []Region {
	rs := make(regionSet, len(s.Writes))
	for r := range s.Writes {
		rs[r] = lvlDirect
	}
	return rs.sortedRegions()
}

// WritesGlobal returns the effect on the given package-level var, if
// any.
func (s *EffectSummary) WritesGlobal(v *types.Var) *WriteEffect {
	return s.Writes[Region{Kind: RegionGlobal, Global: v}]
}

// addWrite records a write to r: a direct store (from == nil) or one
// mapped from a callee's effect. A direct site beats a mapped one as
// the representative; it reports whether r is newly written.
func (s *EffectSummary) addWrite(r Region, pos token.Pos, from *WriteEffect) bool {
	prev := s.Writes[r]
	switch {
	case from == nil && (prev == nil || !prev.Direct):
		s.Writes[r] = &WriteEffect{Region: r, Pos: pos, Direct: true, Path: []string{FuncDisplayName(s.Fn)}}
	case from != nil && prev == nil:
		s.Writes[r] = &WriteEffect{Region: r, Pos: from.Pos, Path: extendPath(from.Path, FuncDisplayName(s.Fn))}
	}
	return prev == nil
}

// writeAll records a direct write to every non-local region of rs.
func (s *EffectSummary) writeAll(rs vals[Region], pos token.Pos) bool {
	grew := false
	for r := range rs {
		if r.Kind != RegionLocal && s.addWrite(r, pos, nil) {
			grew = true
		}
	}
	return grew
}

// Effects is the program-wide effect-summary table.
type Effects struct {
	cg        *CallGraph
	Summaries map[*types.Func]*EffectSummary
}

// Summary returns fn's effect summary, or nil for functions without a
// body in the program.
func (e *Effects) Summary(fn *types.Func) *EffectSummary { return e.Summaries[fn] }

// Effects returns the program's write-effect summaries, computing them
// on first use (shared across analyzers like the call graph).
func (p *Program) Effects() *Effects {
	if p.eff == nil {
		p.eff = computeEffects(p)
	}
	return p.eff
}

func computeEffects(prog *Program) *Effects {
	e := &Effects{cg: prog.CallGraph(), Summaries: make(map[*types.Func]*EffectSummary)}
	for _, n := range e.cg.Ordered {
		e.Summaries[n.Fn] = &EffectSummary{Fn: n.Fn, Node: n, Writes: make(map[Region]*WriteEffect)}
	}
	fl := newFlow[Region](prog, e, false)
	fl.solve(e.cg.Ordered)
	for fn, s := range e.Summaries {
		for _, r := range fl.rets[fn] {
			s.Rets = append(s.Rets, regionSet(r))
		}
	}
	return e
}

// --- the effects policy -------------------------------------------------

func (e *Effects) input(i int) Region {
	if i < 0 {
		return Region{Kind: RegionRecv}
	}
	return Region{Kind: RegionParam, Param: i}
}

func (e *Effects) inputOf(r Region) (int, bool) {
	switch r.Kind {
	case RegionRecv:
		return -1, true
	case RegionParam:
		return r.Param, true
	}
	return 0, false
}

// expr: a value of basic type (number, string, bool) is a copy —
// holding it cannot reach anyone else's storage, so it severs aliasing
// (an int looked up from a global table is just an int); only the
// address-of operator re-establishes a region for a scalar. Program
// globals are regions of their own, and append returns its first
// argument's backing store (or a fresh one).
func (e *Effects) expr(fr *frame[Region], x ast.Expr) (vals[Region], bool) {
	if isBasicExpr(fr.info, x) {
		return nil, true
	}
	switch x := x.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if v := globalRef(fr.info, x); v != nil {
			return vals[Region]{{Kind: RegionGlobal, Global: v}: lvlDirect}, true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return e.addr(fr, x.X), true
		}
	case *ast.CallExpr:
		if builtinName(fr.info, x) == "append" && len(x.Args) > 0 {
			return fr.eval(x.Args[0]), true
		}
	}
	return nil, false
}

// addr computes the regions of an expression's own storage slot — the
// meaning of &expr. This is the one place a basic-typed variable
// re-enters the analysis: copying a scalar severs aliasing, but taking
// its address shares the variable itself.
func (e *Effects) addr(fr *frame[Region], x ast.Expr) vals[Region] {
	switch y := x.(type) {
	case *ast.Ident:
		if v := globalRef(fr.info, y); v != nil {
			return vals[Region]{{Kind: RegionGlobal, Global: v}: lvlDirect}
		}
		return fr.env[fr.info.ObjectOf(y)]
	case *ast.ParenExpr:
		return e.addr(fr, y.X)
	case *ast.SelectorExpr:
		if !isFieldSel(fr.info, y) {
			return fr.eval(y)
		}
		// &x.f lives inside x's own storage (value base) or inside
		// whatever x points to (pointer base); cover both.
		out := vals[Region]{}
		out.join(e.addr(fr, y.X))
		out.join(fr.eval(y.X))
		return out
	case *ast.IndexExpr:
		out := vals[Region]{}
		out.join(e.addr(fr, y.X))
		out.join(fr.eval(y.X))
		return out
	case *ast.StarExpr:
		return fr.eval(y.X) // &*p is p's pointee
	}
	return fr.eval(x)
}

func (e *Effects) elem(v vals[Region]) vals[Region] { return v }

// callee: a function without a body in the program (or an unresolved
// call) may return any argument or its receiver.
func (e *Effects) callee(fr *frame[Region], call *ast.CallExpr, c *types.Func, out []vals[Region]) bool {
	if c == nil || e.cg.Node(c) == nil {
		return fr.passThrough(call, out)
	}
	return false
}

// bind: a store through a local's field or element smears the stored
// regions onto the local, so that a global pointer stashed in a local
// struct keeps its global identity when later written through
// (`x.f = globalPtr; x.f.y = 1`). Global targets are write effects, not
// bindings.
func (e *Effects) bind(fr *frame[Region], obj types.Object, v vals[Region], via storeVia) vals[Region] {
	if pv, ok := obj.(*types.Var); ok && isPackageLevelVar(pv) {
		return nil
	}
	return v
}

func (e *Effects) stmt(*frame[Region], ast.Node) bool { return false }

// collect records, against the settled environment, store effects and
// callee effects mapped through call sites.
func (e *Effects) collect(fr *frame[Region]) bool {
	s := e.Summaries[fr.node.Fn]
	grew := false
	fr.inspect(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					grew = e.recordStore(fr, s, lhs, n.Pos()) || grew
				}
			}
		case *ast.IncDecStmt:
			grew = e.recordStore(fr, s, n.X, n.Pos()) || grew
		case *ast.CallExpr:
			grew = e.recordCallEffects(fr, s, n) || grew
		}
	})
	return grew
}

// globalRef resolves an identifier or package-qualified selector naming
// a program global, or returns nil.
func globalRef(info *types.Info, x ast.Expr) *types.Var {
	var obj types.Object
	switch x := x.(type) {
	case *ast.Ident:
		obj = info.ObjectOf(x)
	case *ast.SelectorExpr:
		if !isFieldSel(info, x) {
			obj = info.Uses[x.Sel]
		}
	}
	if v, ok := obj.(*types.Var); ok && isProgramGlobal(v) {
		return v
	}
	return nil
}

// recordStore attributes one store statement's target to its regions.
// A store to a local variable slot is invisible to callers.
func (e *Effects) recordStore(fr *frame[Region], s *EffectSummary, lhs ast.Expr, pos token.Pos) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if v := globalRef(fr.info, x); v != nil {
			return s.addWrite(Region{Kind: RegionGlobal, Global: v}, pos, nil)
		}
		if sel, ok := x.(*ast.SelectorExpr); ok && isFieldSel(fr.info, sel) {
			return s.writeAll(fr.eval(sel.X), pos)
		}
	case *ast.IndexExpr:
		return s.writeAll(fr.eval(x.X), pos)
	case *ast.StarExpr:
		return s.writeAll(fr.eval(x.X), pos)
	}
	return false
}

// recordCallEffects maps a call's write effects into this summary:
// mutating builtins, known callee summaries, and the conservative model
// for unresolved calls.
func (e *Effects) recordCallEffects(fr *frame[Region], s *EffectSummary, call *ast.CallExpr) bool {
	info := fr.info
	if name := builtinName(info, call); name != "" {
		switch name {
		case "copy", "delete", "clear", "append":
			if len(call.Args) > 0 {
				return s.writeAll(fr.eval(call.Args[0]), call.Pos())
			}
		}
		return false
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	callees := e.cg.CalleesAt(call)
	grew := false
	if len(callees) == 0 {
		// Unresolved call: assume it writes through every mutable
		// pointer-like argument and the receiver.
		for _, a := range call.Args {
			if tv, ok := info.Types[a]; ok && isMutableRef(tv.Type) {
				grew = s.writeAll(fr.eval(a), call.Pos()) || grew
			}
		}
		// A method may mutate its receiver — unless the receiver value
		// cannot carry storage: interface method calls with no
		// in-program implementation (err.Error()) and methods on
		// scalars are reads as far as this analysis can see.
		if x := methodRecv(info, call); x != nil {
			mutable := true
			if tv, ok := info.Types[x]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Interface, *types.Basic:
					mutable = false
				}
			}
			if mutable {
				grew = s.writeAll(fr.eval(x), call.Pos()) || grew
			}
		}
		return grew
	}
	for _, c := range callees {
		sum := e.Summaries[c]
		if sum == nil {
			continue
		}
		for _, r := range sum.WriteRegions() {
			w := sum.Writes[r]
			for site := range fr.through(call, vals[Region]{r: lvlDirect}) {
				if site.Kind != RegionLocal && s.addWrite(site, 0, w) {
					grew = true
				}
			}
		}
	}
	return grew
}

// isPackageLevelVar reports whether v is a package-scope variable (not
// a field, parameter or local).
func isPackageLevelVar(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isProgramGlobal reports whether v is a package-level var declared by
// the program under analysis (the repository or a test fixture).
// Stdlib globals (binary.LittleEndian, os.Stdout) are not regions: the
// shared-state analyzers govern the program's own globals, and stdlib
// vars the program merely calls methods on would be pure noise.
func isProgramGlobal(v *types.Var) bool {
	if !isPackageLevelVar(v) {
		return false
	}
	path := v.Pkg().Path()
	return path == ModulePath ||
		strings.HasPrefix(path, ModulePath+"/") ||
		strings.HasPrefix(path, "fixture/")
}

// isMutableRef reports whether a value of type t lets its holder write
// someone else's storage: pointers, slices, maps and channels. Strings
// are immutable; interfaces and funcs are excluded deliberately —
// counting every error value handed to fmt/errors as a potential write
// would bury the real findings (the cost is missing a stdlib function
// that type-asserts an interface back to a pointer and mutates it,
// which none of the functions sim-critical code calls do).
func isMutableRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}
