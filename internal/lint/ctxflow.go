package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// CtxFlow enforces context discipline in the engine's library layers
// (internal/core, internal/server, internal/mdx):
//
//  1. Library code must not mint contexts: context.Background() and
//     context.TODO() sever the caller's cancellation, so a stuck store
//     read or a parallel scan would outlive the query that asked for
//     it. They are allowed only in package main, in tests, and at
//     explicitly annotated API-boundary shims (//lint:ctxok <reason>).
//  2. A function that loops over chunk reads (calls to the configured
//     store-read methods inside a for/range) must have access to a
//     context.Context — directly as a parameter or through a
//     parameter/receiver struct field (core.ExecContext,
//     mdx.RunContext) — so cancellation can be observed between
//     chunk reads, the granularity the staged executor promises.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "library code must thread the caller's context: no Background()/TODO() outside main/tests, and chunk-read loops must accept a context",
	Run:  runCtxFlow,
}

var (
	ctxflowPkgs = strings.Join([]string{
		ModulePath + "/internal/core",
		ModulePath + "/internal/server",
		ModulePath + "/internal/mdx",
	}, ",")
	ctxflowReadCalls = strings.Join([]string{
		ModulePath + "/internal/chunk.Store.ReadChunk",
		ModulePath + "/internal/chunk.Lease.Read",
	}, ",")
)

func init() {
	CtxFlow.Flags.StringVar(&ctxflowPkgs, "pkgs",
		ctxflowPkgs, "comma-separated package paths the context rules apply to")
	CtxFlow.Flags.StringVar(&ctxflowReadCalls, "readcalls",
		ctxflowReadCalls, "comma-separated pkgpath.Type.Method chunk-read calls that require a context when looped over")
}

// readCall identifies one configured store-read method.
type readCall struct {
	pkg, typ, method string
}

func parseReadCalls(list string) []readCall {
	var out []readCall
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		dot := strings.LastIndex(s, ".")
		if dot < 0 {
			continue
		}
		rest, method := s[:dot], s[dot+1:]
		dot = strings.LastIndex(rest, ".")
		if dot < 0 {
			continue
		}
		out = append(out, readCall{pkg: rest[:dot], typ: rest[dot+1:], method: method})
	}
	return out
}

func runCtxFlow(pass *analysis.Pass) (interface{}, error) {
	if !pkgInList(pass.Pkg.Path(), ctxflowPkgs) {
		return nil, nil
	}
	isMain := pass.Pkg.Name() == "main"
	reads := parseReadCalls(ctxflowReadCalls)
	ix := newDirectiveIndex(pass)

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		// Rule 1: no context minting in library code.
		if !isMain {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := typeutilCallee(pass, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if fn.Name() != "Background" && fn.Name() != "TODO" {
					return true
				}
				if ok, present := ix.justified(call.Pos(), "ctxok"); ok {
					return true
				} else if present {
					pass.Reportf(call.Pos(), "//lint:ctxok needs a reason for minting a context in library code")
					return true
				}
				pass.Reportf(call.Pos(),
					"context.%s() in library code severs the caller's cancellation; thread the caller's ctx (or annotate an API-boundary shim with //lint:ctxok <reason>)",
					fn.Name())
				return true
			})
		}

		// Rule 2: chunk-read loops need a context in reach.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if funcHasContextAccess(pass, fd) {
				continue
			}
			checkChunkLoops(pass, fd, reads)
		}
	}
	return nil, nil
}

// checkChunkLoops reports configured store-read calls made inside a
// loop of a function with no context access.
func checkChunkLoops(pass *analysis.Pass, fd *ast.FuncDecl, reads []readCall) {
	var inLoop func(n ast.Node, loops int)
	inLoop = func(n ast.Node, loops int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Body != nil {
					inLoop(m.Body, loops+1)
				}
				return false
			case *ast.RangeStmt:
				if m.Body != nil {
					inLoop(m.Body, loops+1)
				}
				return false
			case *ast.FuncLit:
				// A closure gets its own context discipline only if it
				// loops itself; don't double-report through captures.
				return false
			case *ast.CallExpr:
				if loops == 0 {
					return true
				}
				if rc, ok := matchReadCall(pass, m, reads); ok {
					pass.Reportf(m.Pos(),
						"%s.%s inside a loop in %s, which has no context.Context in reach; accept a ctx (or an ExecContext/RunContext) so cancellation is observed between chunk reads",
						rc.typ, rc.method, fd.Name.Name)
				}
			}
			return true
		})
	}
	inLoop(fd.Body, 0)
}

func matchReadCall(pass *analysis.Pass, call *ast.CallExpr, reads []readCall) (readCall, bool) {
	fn := typeutilCallee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return readCall{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return readCall{}, false
	}
	recv := sig.Recv().Type()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return readCall{}, false
	}
	for _, rc := range reads {
		if named.Obj().Pkg().Path() == rc.pkg && named.Obj().Name() == rc.typ && fn.Name() == rc.method {
			return rc, true
		}
	}
	return readCall{}, false
}

// funcHasContextAccess reports whether the function can observe a
// caller-supplied context: a context.Context parameter or receiver, or
// a parameter/receiver struct (possibly pointer) with a
// context.Context field.
func funcHasContextAccess(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && typeCarriesContext(recv.Type()) {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if typeCarriesContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func typeCarriesContext(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
