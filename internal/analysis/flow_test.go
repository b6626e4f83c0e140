package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// unbounded is a policy over an infinite lattice: every evaluation of
// an identifier yields a fresh key (so a local environment never
// settles) and, if growSummary is set, every collect reports that the
// summary grew (so the program-wide rounds never settle).
type unbounded struct {
	next        int
	growSummary bool
}

func (u *unbounded) input(i int) int                 { return i }
func (u *unbounded) inputOf(int) (int, bool)         { return 0, false }
func (u *unbounded) elem(v vals[int]) vals[int]      { return v }
func (u *unbounded) stmt(*frame[int], ast.Node) bool { return false }
func (u *unbounded) collect(*frame[int]) bool        { return u.growSummary }

func (u *unbounded) expr(fr *frame[int], e ast.Expr) (vals[int], bool) {
	if _, ok := e.(*ast.Ident); ok && !u.growSummary {
		u.next++
		return vals[int]{u.next: lvlDirect}, true
	}
	return nil, false
}

func (u *unbounded) callee(fr *frame[int], call *ast.CallExpr, c *types.Func, out []vals[int]) bool {
	return fr.passThrough(call, out)
}

func (u *unbounded) bind(fr *frame[int], obj types.Object, v vals[int], via storeVia) vals[int] {
	return v
}

// TestFixpointBoundIsAnError drives the engine with policies whose
// facts grow without bound: reaching the round bound, locally or
// program-wide, must fail the program's analysis rather than yield a
// partial result.
func TestFixpointBoundIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  *unbounded
		want string
	}{
		{"local", &unbounded{}, "local propagation"},
		{"program-wide", &unbounded{growSummary: true}, "program-wide summaries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, pkg := loadFixture(t, "capflow") // recurA and recurB call each other
			fl := newFlow[int](prog, tc.pol, false)
			fl.solve(prog.CallGraph().Ordered)
			if fl.err == nil || !strings.Contains(fl.err.Error(), tc.want) {
				t.Fatalf("engine error = %v, want one about %s", fl.err, tc.want)
			}
			if _, err := Globalstate.Run(prog, []*Package{pkg}); err != fl.err {
				t.Errorf("analyzer run after a failed fixpoint returned %v, want %v", err, fl.err)
			}
			if _, _, err := RunEntriesOn(prog, DefaultSuite()[:1]); err != fl.err {
				t.Errorf("suite run after a failed fixpoint returned %v, want %v", err, fl.err)
			}
		})
	}
}
