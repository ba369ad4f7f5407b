// Package ssax is whatiflint's SSA-lite foundation: a per-function
// intermediate form built over the ctrlflow CFGs that the
// release-pairing analyzer walks, in the role
// golang.org/x/tools/go/analysis/passes/buildssa plays for upstream
// analyzers.
//
// Why not go/ssa itself: this build environment has no module proxy,
// and the Go distribution's cmd/vendor tree — the offline source PR 5
// vendored the analysis framework from — carries only the x/tools
// subset the standard vet suite needs, which does not include go/ssa
// or buildssa. Rather than hand-porting a ~20k-line package, ssax
// lowers exactly the slice of SSA releasepair consumes:
//
//   - basic blocks (from golang.org/x/tools/go/cfg via ctrlflow) with
//     per-block instruction lists in approximate evaluation order:
//     calls (plain, deferred, go), assignments, channel sends,
//     returns;
//   - exit classification: every block with no successors is a
//     function exit, split into return exits (explicit and the
//     materialized implicit return) and panic exits — the paths a
//     must-release analysis has to prove balanced.
//
// The Result is position-addressable: consumers look functions up by
// their *ast.FuncDecl / *ast.FuncLit node, exactly like buildssa's
// SSA.Function lookup idiom.
package ssax

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// Analyzer builds the SSA-lite form for every function in the package.
// It reports nothing; its Result feeds releasepair.
var Analyzer = &analysis.Analyzer{
	Name:       "whatifssa",
	Doc:        "build whatiflint's SSA-lite per-function form (blocks, instructions, exits) for the release-pairing analyzer",
	Run:        run,
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: reflect.TypeOf((*Result)(nil)),
}

// Result holds the package's lowered functions.
type Result struct {
	funcs map[ast.Node]*Func
	order []*Func
}

// Func returns the lowered form of a *ast.FuncDecl or *ast.FuncLit, or
// nil when the node has no body (or is not a function).
func (r *Result) Func(n ast.Node) *Func { return r.funcs[n] }

// All returns every lowered function in source order, function
// literals included.
func (r *Result) All() []*Func { return r.order }

// Func is one function body in SSA-lite form.
type Func struct {
	Node   ast.Node // *ast.FuncDecl or *ast.FuncLit
	Name   string   // declared name, or "func literal"
	Blocks []*Block
}

// Block is one basic block with lowered instructions.
type Block struct {
	Index  int
	Instrs []Instr
	Succs  []int
	Exit   ExitKind
	// ExitPos is the return statement or panic call position for
	// Return/Panic exits.
	ExitPos token.Pos
	// Return is the explicit or materialized return statement of a
	// Return exit.
	Return *ast.ReturnStmt
}

// ExitKind classifies how a no-successor block leaves the function.
type ExitKind int

const (
	ExitNone   ExitKind = iota // not an exit block
	ExitReturn                 // explicit or implicit return
	ExitPanic                  // a panic(...) call cuts the flow
)

// InstrKind discriminates Instr.
type InstrKind int

const (
	KCall   InstrKind = iota // function or method call
	KDefer                   // deferred call (runs at function exit)
	KGo                      // goroutine launch
	KAssign                  // assignment or short variable declaration
	KSend                    // channel send
	KReturn                  // return statement
)

// Instr is one lowered operation.
type Instr struct {
	Kind   InstrKind
	Node   ast.Node
	Call   *ast.CallExpr // KCall / KDefer / KGo
	Callee *types.Func   // static callee, nil for dynamic calls
	Lhs    []ast.Expr    // KAssign
	Rhs    []ast.Expr    // KAssign
	// Stmt marks a KCall lowered from a standalone expression
	// statement: its results, if any, are discarded.
	Stmt bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	r := &Result{funcs: make(map[ast.Node]*Func)}
	b := &builder{pass: pass}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					r.add(b.build(n, n.Name.Name, cfgs.FuncDecl(n)))
				}
			case *ast.FuncLit:
				r.add(b.build(n, "func literal", cfgs.FuncLit(n)))
			}
			return true
		})
	}
	return r, nil
}

func (r *Result) add(f *Func) {
	if f == nil {
		return
	}
	r.funcs[f.Node] = f
	r.order = append(r.order, f)
}

type builder struct {
	pass *analysis.Pass
}

func (b *builder) build(node ast.Node, name string, g *cfg.CFG) *Func {
	if g == nil || len(g.Blocks) == 0 {
		return nil
	}
	f := &Func{Node: node, Name: name}
	for _, cb := range g.Blocks {
		blk := &Block{Index: int(cb.Index)}
		for _, s := range cb.Succs {
			blk.Succs = append(blk.Succs, int(s.Index))
		}
		for _, n := range cb.Nodes {
			b.lower(blk, n)
		}
		if len(cb.Succs) == 0 && cb.Live {
			classifyExit(blk, cb)
		}
		f.Blocks = append(f.Blocks, blk)
	}
	return f
}

// classifyExit marks blk as a return or panic exit of its function.
func classifyExit(blk *Block, cb *cfg.Block) {
	for i := len(cb.Nodes) - 1; i >= 0; i-- {
		switch n := cb.Nodes[i].(type) {
		case *ast.ReturnStmt:
			blk.Exit, blk.ExitPos, blk.Return = ExitReturn, n.Pos(), n
			return
		}
	}
	// No return: the builder cut the edge after a no-return call
	// (panic, os.Exit, log.Fatal). Treat an explicit panic as a panic
	// exit; other no-return shapes (select{}, for{}) are not exits a
	// release analysis can do anything about.
	for i := len(cb.Nodes) - 1; i >= 0; i-- {
		if es, ok := cb.Nodes[i].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					blk.Exit, blk.ExitPos = ExitPanic, call.Pos()
					return
				}
			}
		}
	}
}

// lower appends the instructions of one CFG node to blk, in approximate
// evaluation order.
func (b *builder) lower(blk *Block, node ast.Node) {
	info := b.pass.TypesInfo
	stmtCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(node, func(m ast.Node) bool {
		if es, ok := m.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				stmtCalls[call] = true
			}
		}
		return true
	})
	ast.Inspect(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // its body is a separate Func
		case *ast.DeferStmt:
			for _, arg := range m.Call.Args {
				b.lower(blk, arg)
			}
			blk.Instrs = append(blk.Instrs, Instr{Kind: KDefer, Node: m, Call: m.Call, Callee: staticCallee(info, m.Call)})
			return false
		case *ast.GoStmt:
			for _, arg := range m.Call.Args {
				b.lower(blk, arg)
			}
			blk.Instrs = append(blk.Instrs, Instr{Kind: KGo, Node: m, Call: m.Call, Callee: staticCallee(info, m.Call)})
			return false
		case *ast.SendStmt:
			blk.Instrs = append(blk.Instrs, Instr{Kind: KSend, Node: m})
		case *ast.CallExpr:
			if tv, ok := info.Types[m.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			blk.Instrs = append(blk.Instrs, Instr{Kind: KCall, Node: m, Call: m, Callee: staticCallee(info, m), Stmt: stmtCalls[m]})
		case *ast.AssignStmt:
			blk.Instrs = append(blk.Instrs, Instr{Kind: KAssign, Node: m, Lhs: m.Lhs, Rhs: m.Rhs})
		case *ast.ValueSpec:
			if len(m.Values) > 0 {
				lhs := make([]ast.Expr, len(m.Names))
				for i, name := range m.Names {
					lhs[i] = name
				}
				blk.Instrs = append(blk.Instrs, Instr{Kind: KAssign, Node: m, Lhs: lhs, Rhs: m.Values})
			}
		case *ast.ReturnStmt:
			blk.Instrs = append(blk.Instrs, Instr{Kind: KReturn, Node: m})
		}
		return true
	})
}

// staticCallee resolves the static callee of a call, or nil for
// dynamic calls and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
