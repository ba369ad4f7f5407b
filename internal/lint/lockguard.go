package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// LockGuard encodes the buffer pool's "I/O outside the lock" rule: the
// chunk store's mutexes order map/tier bookkeeping only; fault-in I/O,
// channel handshakes and other blocking operations must happen with
// the lock released (pool.go's poolGet drops the lock around
// ReadChunkAt and re-acquires it to publish — that shape is the
// invariant). It checks the blocking call's own function only: a helper
// that blocks while its caller holds the lock is outside its view.
//
// The analyzer runs a forward may-held dataflow over each function's
// control-flow graph: mu.Lock()/RLock() acquires, a non-deferred
// Unlock releases (defer mu.Unlock() holds to function exit by
// design), and any potentially blocking operation reached while a
// lock may be held is reported:
//
//   - channel sends and receives
//   - calls into blocked packages (simdisk: every call is priced I/O;
//     segment: every exported entry point does file I/O)
//   - ReadAt / WriteAt / Sync methods (file I/O)
//   - ReadChunkAt methods (chunk.Tier fault-in)
//   - sync.WaitGroup.Wait and time.Sleep
//
// Annotate //lint:lockok <reason> for a reviewed exception.
var LockGuard = &analysis.Analyzer{
	Name:     "lockguard",
	Doc:      "no blocking calls (tier fault-in I/O, channel ops, simdisk reads) while holding chunk-store/buffer-pool mutexes",
	Run:      runLockGuard,
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
}

var (
	lockguardPkgs      = ModulePath + "/internal/chunk," + ModulePath + "/internal/segment"
	lockguardBlockPkgs = ModulePath + "/internal/simdisk," + ModulePath + "/internal/segment," +
		ModulePath + "/internal/obs"
)

func init() {
	LockGuard.Flags.StringVar(&lockguardPkgs, "pkgs",
		lockguardPkgs, "comma-separated package paths whose lock regions are checked")
	LockGuard.Flags.StringVar(&lockguardBlockPkgs, "blockpkgs",
		lockguardBlockPkgs, "comma-separated package paths whose every call counts as blocking I/O")
}

func runLockGuard(pass *analysis.Pass) (interface{}, error) {
	if !pkgInList(pass.Pkg.Path(), lockguardPkgs) {
		return nil, nil
	}
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	ix := newDirectiveIndex(pass)
	la := &lockAnalysis{pass: pass, ix: ix, reported: make(map[token.Pos]bool)}

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					la.analyze(cfgs.FuncDecl(n))
				}
			case *ast.FuncLit:
				la.analyze(cfgs.FuncLit(n))
			}
			return true
		})
	}
	return nil, nil
}

type lockAnalysis struct {
	pass     *analysis.Pass
	ix       *directiveIndex
	reported map[token.Pos]bool
}

// lockState maps a mutex's receiver rendering ("s.mu") to the position
// of the Lock call that may hold it.
type lockState map[string]token.Pos

func cloneState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst, reporting whether dst grew.
func mergeInto(dst, src lockState) bool {
	grew := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			grew = true
		}
	}
	return grew
}

// analyze runs the may-held fixpoint over g, then a reporting pass.
func (la *lockAnalysis) analyze(g *cfg.CFG) {
	if g == nil || len(g.Blocks) == 0 {
		return
	}
	in := make([]lockState, len(g.Blocks))
	in[0] = lockState{}
	work := []*cfg.Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := cloneState(in[b.Index])
		for _, n := range b.Nodes {
			la.transfer(out, n, false)
		}
		for _, succ := range b.Succs {
			if in[succ.Index] == nil {
				in[succ.Index] = cloneState(out)
				work = append(work, succ)
			} else if mergeInto(in[succ.Index], out) {
				work = append(work, succ)
			}
		}
	}
	for i, b := range g.Blocks {
		if in[i] == nil {
			continue
		}
		st := cloneState(in[i])
		for _, n := range b.Nodes {
			la.transfer(st, n, true)
		}
	}
}

// transfer interprets one CFG node: lock acquisitions/releases mutate
// held; blocking operations are reported when report is set and a lock
// may be held.
func (la *lockAnalysis) transfer(held lockState, n ast.Node, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// A different function; locks don't flow into it here.
			return false
		case *ast.DeferStmt:
			// The deferred call runs at function exit: a deferred
			// Unlock intentionally does NOT clear the held state, and
			// a deferred blocking call is not blocking here. Its
			// arguments, however, are evaluated now.
			for _, arg := range m.Call.Args {
				la.transfer(held, arg, report)
			}
			return false
		case *ast.GoStmt:
			// Same shape: the goroutine body doesn't block the caller,
			// the arguments are evaluated now.
			for _, arg := range m.Call.Args {
				la.transfer(held, arg, report)
			}
			return false
		case *ast.SendStmt:
			la.blockingOp(held, m.Pos(), "channel send", report)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				la.blockingOp(held, m.Pos(), "channel receive", report)
			}
		case *ast.CallExpr:
			la.call(held, m, report)
		}
		return true
	})
}

func (la *lockAnalysis) call(held lockState, call *ast.CallExpr, report bool) {
	fn := typeutilCallee(la.pass, call)
	if fn == nil {
		return
	}
	if kind, key := la.mutexOp(call, fn); kind != "" {
		switch kind {
		case "lock":
			held[key] = call.Pos()
		case "unlock":
			delete(held, key)
		}
		return
	}
	if desc := blockingCallee(fn, la.pass.Pkg.Path()); desc != "" {
		la.blockingOp(held, call.Pos(), desc, report)
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex Lock/Unlock on a
// rendered receiver key, or returns "".
func (la *lockAnalysis) mutexOp(call *ast.CallExpr, fn *types.Func) (kind, key string) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	recvName := namedTypeName(sig.Recv().Type())
	if recvName != "Mutex" && recvName != "RWMutex" {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	key = renderExpr(la.pass.Fset, sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return "lock", key
	case "Unlock", "RUnlock":
		return "unlock", key
	}
	return "", ""
}

// blockingCallee describes why fn blocks, or returns "". selfPkg is
// the package under analysis: a blocked package's own internal calls
// are not "calls into the blocked package" — its lock discipline is
// checked directly via the pkgs list instead.
func blockingCallee(fn *types.Func, selfPkg string) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	if pkg.Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	if pkg.Path() != selfPkg && pkgInList(pkg.Path(), lockguardBlockPkgs) {
		return pkg.Name() + " I/O (" + pkg.Name() + "." + fn.Name() + ")"
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch fn.Name() {
	case "ReadAt", "WriteAt", "Sync":
		return fn.Name() + " I/O"
	case "ReadChunkAt":
		return "ReadChunkAt tier I/O"
	case "Wait":
		if pkg.Path() == "sync" && namedTypeName(sig.Recv().Type()) == "WaitGroup" {
			return "sync.WaitGroup.Wait"
		}
	}
	return ""
}

func (la *lockAnalysis) blockingOp(held lockState, pos token.Pos, desc string, report bool) {
	if !report || len(held) == 0 || la.reported[pos] {
		return
	}
	la.reported[pos] = true
	if ok, present := la.ix.justified(pos, "lockok"); ok {
		return
	} else if present {
		la.pass.Reportf(pos, "//lint:lockok needs a reason for blocking inside a critical section")
		return
	}
	// Name one witness lock deterministically (smallest key).
	var key string
	for k := range held {
		if key == "" || k < key {
			key = k
		}
	}
	la.pass.Reportf(pos,
		"%s while %s may be held (locked at %s); do the blocking work outside the critical section and re-acquire to publish, or annotate //lint:lockok <reason>",
		desc, key, la.pass.Fset.Position(held[key]))
}

// namedTypeName returns the name of the (possibly pointered) named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// renderExpr renders a receiver expression compactly for lock keys.
func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "mutex"
	}
	return strings.Join(strings.Fields(buf.String()), "")
}
