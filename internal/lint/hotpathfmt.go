package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// HotpathFmt forbids formatting machinery on the engine's declared hot
// paths. The span recorder (internal/trace/trace.go), the staged
// executor's scan loop (internal/core/exec.go), the compiled
// projection's accumulator pass (internal/core/project.go), the overlay
// write path (internal/chunk/overlay.go), the scenario layer-chain read
// path (internal/chunk/chain.go), the run-encoded chunk iterator
// (internal/chunk/run.go) and the per-query trace-retention decision
// (internal/obs/retain.go) hold the suite's 0-alloc-per-cell
// guarantee; an fmt import there puts reflection-based formatting on
// the per-chunk path. The analyzer replaces verify.sh's old grep with
// an import-graph check:
//
//  1. A hot-path file (built-in list + //lint:hotpath marker) must not
//     import fmt, reflect or log directly. No escape hatch.
//  2. It must not import any package — module-local shims included —
//     from which fmt/reflect is reachable through packages that have
//     not been reviewed as formatting-off-hot-path (//lint:coldfmt).
//     This catches transitive re-exports: a helper package that wraps
//     fmt.Sprintf carries a ReachesFormatting fact and is rejected at
//     the hot-path import site unless the edge is annotated
//     //lint:hotpathok <reason>.
//  3. Function bodies in hot-path files must not call errors.New,
//     fmt.* or reflect.* (per-call allocation); package-level sentinel
//     errors remain allowed.
var HotpathFmt = &analysis.Analyzer{
	Name:      "hotpathfmt",
	Doc:       "forbid fmt/reflect/log and per-call error construction on declared hot-path files, including transitively re-exported formatting",
	Run:       runHotpathFmt,
	FactTypes: []analysis.Fact{(*ReachesFormatting)(nil)},
}

var (
	hotpathFiles = "internal/trace/trace.go,internal/core/exec.go,internal/core/project.go,internal/chunk/overlay.go,internal/chunk/chain.go,internal/chunk/run.go,internal/obs/retain.go"
	hotpathRoot  = ModulePath
)

func init() {
	HotpathFmt.Flags.StringVar(&hotpathFiles, "files",
		hotpathFiles, "comma-separated path suffixes of hot-path files (in addition to //lint:hotpath markers)")
	HotpathFmt.Flags.StringVar(&hotpathRoot, "module",
		hotpathRoot, "module import-path prefix treated as local when walking formatting reach")
}

// forbiddenHotImports are packages that must never be imported from a
// hot-path file: fmt and reflect put reflection-based formatting on the
// scan path, log formats and locks.
var forbiddenHotImports = map[string]string{
	"fmt":     "reflection-based formatting on the per-chunk path",
	"reflect": "reflection on the per-chunk path",
	"log":     "formats and serializes on the per-chunk path",
}

// ReachesFormatting is a package fact: fmt or reflect is reachable from
// the package's import graph through packages not reviewed as
// //lint:coldfmt. Chain records one witness path, ending at the
// formatting package.
type ReachesFormatting struct {
	Chain []string
}

// AFact marks ReachesFormatting as a serializable analysis fact.
func (*ReachesFormatting) AFact() {}

func (f *ReachesFormatting) String() string {
	return "reaches " + strings.Join(f.Chain, " → ")
}

func runHotpathFmt(pass *analysis.Pass) (interface{}, error) {
	ix := newDirectiveIndex(pass)

	// Phase 1: compute and export this package's ReachesFormatting
	// fact, so downstream hot-path files can reject the edge. A
	// //lint:coldfmt declaration (with a reason) stops propagation:
	// the package's formatting use has been reviewed as off-hot-path.
	coldfmt, coldfmtPresent := packageDirective(pass, ix, "coldfmt")
	reviewed := coldfmtPresent && coldfmt.reason != ""
	if coldfmtPresent && coldfmt.reason == "" {
		pass.Reportf(pass.Files[0].Package,
			"%s declares //lint:coldfmt without a reason; state why its formatting stays off the hot path", pass.Pkg.Path())
	}
	if !reviewed {
		if chain := formattingChain(pass); chain != nil {
			pass.ExportPackageFact(&ReachesFormatting{Chain: chain})
		}
	}

	// Phase 2: check hot-path files.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		if !fileMatches(pass.Fset, f, hotpathFiles) && !ix.fileMarked(f, "hotpath") {
			continue
		}
		checkHotFile(pass, ix, f)
	}
	return nil, nil
}

// formattingChain returns a witness import path from this package to
// fmt/reflect, or nil if formatting is unreachable. Direct imports of
// the forbidden set win; otherwise the first (path-sorted) import
// carrying a ReachesFormatting fact extends its chain.
func formattingChain(pass *analysis.Pass) []string {
	imports := append([]*types.Package(nil), pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		if p := imp.Path(); p == "fmt" || p == "reflect" {
			return []string{pass.Pkg.Path(), p}
		}
	}
	for _, imp := range imports {
		var fact ReachesFormatting
		if pass.ImportPackageFact(imp, &fact) {
			return append([]string{pass.Pkg.Path()}, fact.Chain...)
		}
	}
	return nil
}

func checkHotFile(pass *analysis.Pass, ix *directiveIndex, f *ast.File) {
	// Imports: forbidden directly, or transitively formatting-capable.
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if why, bad := forbiddenHotImports[path]; bad {
			pass.Reportf(imp.Pos(),
				"hot-path file imports %q: %s; format at exposition time instead (trace/render.go, the server's prom/slowlog surfaces)",
				path, why)
			continue
		}
		ipkg := importedPackage(pass, path)
		if ipkg == nil {
			continue
		}
		var fact ReachesFormatting
		if !pass.ImportPackageFact(ipkg, &fact) {
			continue
		}
		if ok, present := ix.justified(imp.Pos(), "hotpathok"); ok {
			continue
		} else if present {
			pass.Reportf(imp.Pos(), "//lint:hotpathok needs a reason explaining why %q cannot format on the hot path", path)
			continue
		}
		pass.Reportf(imp.Pos(),
			"hot-path file imports %q, which reaches formatting (%s); review the dependency and annotate //lint:hotpathok <reason>, or declare the package //lint:coldfmt after review",
			path, fact.String())
	}

	// Per-call allocation: errors.New / fmt.* / reflect.* inside
	// function bodies. Package-level sentinel errors stay legal, so
	// only calls lexically inside a FuncDecl body are flagged.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutilCallee(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "errors":
				if fn.Name() == "New" {
					pass.Reportf(call.Pos(),
						"errors.New allocates per call on a hot path; hoist to a package-level sentinel error or return a static error")
				}
			case "fmt", "reflect":
				pass.Reportf(call.Pos(),
					"%s.%s on a hot path formats/reflects per call; move formatting to exposition time", fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
}

// importedPackage resolves an import path to the *types.Package among
// the current package's direct imports.
func importedPackage(pass *analysis.Pass, path string) *types.Package {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// typeutilCallee resolves the static callee of a call, or nil for
// dynamic calls. (A trimmed-down typeutil.StaticCallee that also works
// for qualified identifiers through dot imports.)
func typeutilCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
