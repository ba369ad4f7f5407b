package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"whatifolap/internal/lint/ssax"
)

// AllocGuard machine-checks the suite's 0-alloc hot-path claims. The
// overlay write path, the slab kernel, the chain read path, the span
// recorder and the trace-retention decision are pinned at 0 allocs/op
// by AllocsPerRun tests — but those pins cover exactly the shapes the
// benchmarks exercise. AllocGuard checks the files themselves, on
// every build, for SSA-level operations that heap-allocate or force an
// escape:
//
//   - interface boxing of a non-pointer-shaped value (the value
//     escapes; converting a pointer is free and stays legal);
//   - capturing closures built inside loops (a closure object per
//     iteration; hoist it or pre-bind the state on a struct);
//   - append without preallocated-capacity evidence — no
//     make(T, len, cap) definition in the function and not a
//     caller-provided buffer parameter;
//   - map/channel allocation inside loops;
//   - string↔[]byte/[]rune conversions (contents copy per call);
//   - calls to variadic functions without ... (the argument slice is
//     built per call);
//   - calls, inside hot-path loops, to module-local functions whose
//     entry block provably allocates — tracked via the Allocates
//     object fact, so moving the allocation one function away (or one
//     package away) is still caught.
//
// The reviewed escape hatch is //lint:allocok <reason> on the line or
// the line above: amortized per-query setup (not per-cell) is the
// usual justification.
var AllocGuard = &analysis.Analyzer{
	Name:      "allocguard",
	Doc:       "forbid heap-allocating operations (boxing, capturing closures, unprovisioned append, map/string conversions, variadic slices) on declared 0-alloc hot-path files",
	Run:       runAllocGuard,
	Requires:  []*analysis.Analyzer{ssax.Analyzer},
	FactTypes: []analysis.Fact{(*Allocates)(nil)},
}

var allocguardFiles = "internal/trace/trace.go,internal/core/exec.go,internal/chunk/overlay.go,internal/chunk/chain.go,internal/chunk/run.go,internal/obs/retain.go"

func init() {
	AllocGuard.Flags.StringVar(&allocguardFiles, "files",
		allocguardFiles, "comma-separated path suffixes of 0-alloc hot-path files (in addition to //lint:hotpath markers)")
}

// Allocates is an object fact on functions whose entry block contains
// an unconditional heap allocation: every call pays it. Hot-path loops
// calling such a function are flagged even when the allocation lives
// in another package.
type Allocates struct {
	Why string
}

// AFact marks Allocates as a serializable analysis fact.
func (*Allocates) AFact() {}

func (a *Allocates) String() string { return "allocates: " + a.Why }

func runAllocGuard(pass *analysis.Pass) (interface{}, error) {
	res := pass.ResultOf[ssax.Analyzer].(*ssax.Result)
	ix := newDirectiveIndex(pass)

	// Phase 1 (every package): export Allocates facts for functions
	// whose entry block unconditionally allocates.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := res.Func(fd)
			if fn == nil {
				continue
			}
			if why := definiteAlloc(fn); why != "" {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					pass.ExportObjectFact(obj, &Allocates{Why: why})
				}
			}
		}
	}

	// Phase 2: check the hot-path files.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		if !fileMatches(pass.Fset, f, allocguardFiles) && !ix.fileMarked(f, "hotpath") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkAllocFunc(pass, ix, res, res.Func(n))
				}
			case *ast.FuncLit:
				checkAllocFunc(pass, ix, res, res.Func(n))
			}
			return true
		})
	}
	return nil, nil
}

// definiteAlloc returns a description of an unconditional allocation in
// fn's entry block, or "".
func definiteAlloc(fn *ssax.Func) string {
	for _, a := range fn.Allocs {
		if !a.InEntry {
			continue
		}
		switch a.Kind {
		case ssax.AllocBox, ssax.AllocConvString, ssax.AllocVariadic, ssax.AllocMake, ssax.AllocClosure:
			return a.Kind.String() + " in the entry block"
		}
	}
	return ""
}

// checkAllocFunc reports fn's allocation sites under the hot-path
// policy, honoring //lint:allocok justifications.
func checkAllocFunc(pass *analysis.Pass, ix *directiveIndex, res *ssax.Result, fn *ssax.Func) {
	if fn == nil {
		return
	}
	for _, a := range fn.Allocs {
		var msg string
		switch a.Kind {
		case ssax.AllocBox:
			msg = "interface boxing of " + a.From.String() + " on a 0-alloc hot path: the value escapes to the heap; keep the concrete type"
		case ssax.AllocConvString:
			msg = "string conversion copies its contents per call on a 0-alloc hot path; keep one representation"
		case ssax.AllocVariadic:
			callee := "a variadic function"
			if a.Callee != nil {
				callee = a.Callee.Name()
			}
			msg = "call to " + callee + " builds its variadic argument slice per call on a 0-alloc hot path; pass a preallocated slice with ... or add a fixed-arity variant"
		case ssax.AllocClosure:
			if !a.InLoop {
				continue
			}
			msg = "capturing closure built per loop iteration on a 0-alloc hot path; hoist it out of the loop (captures are loop-invariant storage)"
		case ssax.AllocMake:
			if !a.InLoop {
				continue
			}
			msg = "map/channel allocation inside a hot-path loop; hoist and reuse"
		case ssax.AllocAppend:
			if a.Capacity {
				continue
			}
			msg = "append without preallocated-capacity evidence on a 0-alloc hot path; size it with make(T, 0, n) up front (or grow through a caller-provided buffer)"
		default:
			continue
		}
		reportAlloc(pass, ix, a.Pos, msg)
	}

	// Calls in hot loops to functions that provably allocate on entry.
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Kind != ssax.KCall && in.Kind != ssax.KDefer && in.Kind != ssax.KGo {
				continue
			}
			if in.Callee == nil || in.Callee.Pkg() == nil || !fn.InLoop(in.Call.Pos()) {
				continue
			}
			// Only analyzed (module-local or testdata) packages carry
			// Allocates facts, so fact presence is the locality filter.
			var fact Allocates
			if !pass.ImportObjectFact(in.Callee, &fact) {
				continue
			}
			reportAlloc(pass, ix, in.Call.Pos(),
				"call to "+in.Callee.Name()+" ("+fact.String()+") inside a hot-path loop; inline the fast path or hoist the allocation")
		}
	}
}

func reportAlloc(pass *analysis.Pass, ix *directiveIndex, pos token.Pos, msg string) {
	if ok, present := ix.justified(pos, "allocok"); ok {
		return
	} else if present {
		pass.Reportf(pos, "//lint:allocok needs a reason for allocating on a hot path")
		return
	}
	pass.Reportf(pos, "%s, or annotate //lint:allocok <reason>", msg)
}
