package ssax_test

import (
	"os"
	"path/filepath"
	"testing"

	"golang.org/x/tools/go/analysis"

	"whatifolap/internal/lint/driver"
	"whatifolap/internal/lint/ssax"
)

// fixture holds one function per exit shape releasepair distinguishes.
const fixture = `package fx

func work()    {}
func get() int { return 0 }
func use(int)  {}

func explicit(b bool) int {
	if b {
		return 1
	}
	return 2
}

func implicit() {
	work()
}

func panics(b bool) {
	if b {
		panic("boom")
	}
	work()
}

func loop(n int) {
	for i := 0; i < n; i++ {
		work()
	}
	use(n)
}

func lowered(ch chan int) {
	defer use(get())
	go work()
	ch <- 1
	x := get()
	use(x)
}
`

// build lowers the fixture and returns its functions by name.
func build(t *testing.T) (map[string]*ssax.Func, *driver.Loader) {
	t.Helper()
	srcRoot := filepath.Join(t.TempDir(), "src")
	dir := filepath.Join(srcRoot, "fx")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fx.go"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var res *ssax.Result
	probe := &analysis.Analyzer{
		Name:     "ssaxprobe",
		Doc:      "captures the ssax result of the fixture package",
		Requires: []*analysis.Analyzer{ssax.Analyzer},
		Run: func(pass *analysis.Pass) (interface{}, error) {
			res = pass.ResultOf[ssax.Analyzer].(*ssax.Result)
			return nil, nil
		},
	}
	l := driver.NewTestdata(srcRoot)
	if _, err := l.Load("fx"); err != nil {
		t.Fatal(err)
	}
	if _, err := driver.Run(l.Fset, l.Order(), []*analysis.Analyzer{probe}); err != nil {
		t.Fatal(err)
	}
	funcs := make(map[string]*ssax.Func)
	for _, f := range res.All() {
		funcs[f.Name] = f
	}
	return funcs, l
}

// exits returns fn's exit blocks of the given kind.
func exits(fn *ssax.Func, kind ssax.ExitKind) []*ssax.Block {
	var out []*ssax.Block
	for _, b := range fn.Blocks {
		if b.Exit == kind {
			out = append(out, b)
		}
	}
	return out
}

// blockCalling returns the block holding a plain call to name.
func blockCalling(t *testing.T, fn *ssax.Func, name string) *ssax.Block {
	t.Helper()
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ssax.KCall && in.Callee != nil && in.Callee.Name() == name {
				return b
			}
		}
	}
	t.Fatalf("%s: no block calls %s", fn.Name, name)
	return nil
}

// onCycle reports whether b can reach itself through Succs.
func onCycle(fn *ssax.Func, b *ssax.Block) bool {
	seen := make([]bool, len(fn.Blocks))
	work := append([]int(nil), b.Succs...)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if i == b.Index {
			return true
		}
		if !seen[i] {
			seen[i] = true
			work = append(work, fn.Blocks[i].Succs...)
		}
	}
	return false
}

func TestExplicitReturnExits(t *testing.T) {
	funcs, l := build(t)
	rets := exits(funcs["explicit"], ssax.ExitReturn)
	if len(rets) != 2 {
		t.Fatalf("explicit has %d return exits, want 2", len(rets))
	}
	for _, b := range rets {
		if b.Return == nil || b.ExitPos != b.Return.Pos() || len(b.Succs) != 0 {
			t.Fatalf("return exit %d: Return=%v ExitPos=%v Succs=%v", b.Index, b.Return, b.ExitPos, b.Succs)
		}
		if len(b.Return.Results) != 1 {
			t.Fatalf("return exit at %v is not one of the source returns", l.Fset.Position(b.ExitPos))
		}
	}
}

func TestImplicitReturnAtClosingBrace(t *testing.T) {
	funcs, l := build(t)
	rets := exits(funcs["implicit"], ssax.ExitReturn)
	if len(rets) != 1 {
		t.Fatalf("implicit has %d return exits, want 1", len(rets))
	}
	if got := l.Fset.Position(rets[0].ExitPos); got.Line != 16 || got.Column != 1 {
		t.Fatalf("implicit return at %v, want the closing brace at 16:1", got)
	}
}

func TestPanicExit(t *testing.T) {
	funcs, l := build(t)
	fn := funcs["panics"]
	ps := exits(fn, ssax.ExitPanic)
	if len(ps) != 1 {
		t.Fatalf("panics has %d panic exits, want 1", len(ps))
	}
	if got := l.Fset.Position(ps[0].ExitPos); got.Line != 20 {
		t.Fatalf("panic exit at %v, want line 20", got)
	}
	if n := len(exits(fn, ssax.ExitReturn)); n != 1 {
		t.Fatalf("panics has %d return exits, want 1 (the fall-through)", n)
	}
}

// TestLoopBlockMembership pins the back edge releasepair's fixpoint
// iterates over: the loop body's block reaches itself, the block after
// the loop does not.
func TestLoopBlockMembership(t *testing.T) {
	funcs, _ := build(t)
	fn := funcs["loop"]
	if !onCycle(fn, blockCalling(t, fn, "work")) {
		t.Fatal("the loop body's block is not on a cycle")
	}
	if onCycle(fn, blockCalling(t, fn, "use")) {
		t.Fatal("the block after the loop is on a cycle")
	}
}

// TestDeferGoLowering pins the instruction shapes of defer and go: the
// deferred call's arguments are evaluated first as plain calls, the
// deferred and launched calls themselves are KDefer / KGo only, and a
// call whose result is used is not marked as a statement.
func TestDeferGoLowering(t *testing.T) {
	funcs, _ := build(t)
	type shape struct {
		kind   ssax.InstrKind
		callee string
		stmt   bool
	}
	want := []shape{
		{ssax.KCall, "get", false},
		{ssax.KDefer, "use", false},
		{ssax.KGo, "work", false},
		{ssax.KSend, "", false},
		{ssax.KAssign, "", false},
		{ssax.KCall, "get", false},
		{ssax.KCall, "use", true},
		{ssax.KReturn, "", false},
	}
	var got []shape
	for _, b := range funcs["lowered"].Blocks {
		for _, in := range b.Instrs {
			s := shape{kind: in.Kind, stmt: in.Stmt}
			if in.Callee != nil {
				s.callee = in.Callee.Name()
			}
			got = append(got, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("lowered to %d instructions %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
}
