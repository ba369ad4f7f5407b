package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"whatifolap/internal/lint/ssax"
)

// ReleasePair proves paired acquire/release operations balance on every
// control-flow path, including early returns and panics — the leak
// class AllocsPerRun pins and race tests never see. Two pairing shapes:
//
//   - keyed pairs: the release is a method on the same receiver
//     (mu.Lock/mu.Unlock, store.Pin(id)/store.Unpin(id) — the key is
//     the rendered receiver plus the leading arguments named by the
//     spec). A deferred release holds to function exit by design and
//     clears the obligation.
//   - result pairs: the acquire returns the resource and the release
//     is a method on the result (sp := tr.Start(...) / sp.End(),
//     NewLayer/Seal, lease := store.Lease() / lease.Release()).
//     Ownership transfer ends the obligation: returning the resource,
//     passing it as an argument, storing it anywhere, or sending it on
//     a channel all count as handing the release duty to someone else.
//     Method calls on the resource (sp.Int(...), ch, info, err :=
//     lease.Read(id)) do not, whether statements or expressions.
//
// The analysis is a forward may-held dataflow over the CFG: a resource
// held at a return or panic exit is reported at that exit. When the
// resource is held on *every* path into an explicit return (must-held),
// the diagnostic carries a suggested fix inserting the release before
// the return — `make lint-fix` applies those. //lint:pairok <reason>
// on the acquire (or the exit) is the reviewed escape hatch.
var ReleasePair = &analysis.Analyzer{
	Name:     "releasepair",
	Doc:      "paired operations (Lock/Unlock, Pin/Unpin, span Start/End, NewLayer/Seal, Lease/Release) must balance on every path, including early returns and panics",
	Run:      runReleasePair,
	Requires: []*analysis.Analyzer{ssax.Analyzer},
}

var (
	releasepairPkgs = strings.Join([]string{
		ModulePath + "/internal/core",
		ModulePath + "/internal/chunk",
		ModulePath + "/internal/segment",
		ModulePath + "/internal/scenario",
		ModulePath + "/internal/trace",
	}, ",")
	releasepairPairs = strings.Join([]string{
		"sync.Mutex.Lock:Unlock",
		"sync.RWMutex.Lock:Unlock",
		"sync.RWMutex.RLock:RUnlock",
		ModulePath + "/internal/chunk.Store.Pin:Unpin@1",
		ModulePath + "/internal/trace.Trace.Start:End",
		ModulePath + "/internal/chunk.NewLayer:Seal",
		ModulePath + "/internal/chunk.Store.Lease:Release",
	}, ",")
)

func init() {
	ReleasePair.Flags.StringVar(&releasepairPkgs, "pkgs",
		releasepairPkgs, "comma-separated package paths checked for balanced pairs")
	ReleasePair.Flags.StringVar(&releasepairPairs, "pairs",
		releasepairPairs, "comma-separated pair specs: pkgpath[.Type].Acquire:Release[@keyargs]")
}

// pairSpec is one acquire/release pairing. typ == "" means the acquire
// is a package-level function; keyArgs is how many leading acquire
// arguments join the receiver in the key (keyed mode only). Whether a
// spec is keyed or result-mode is decided by the acquire's signature:
// any results → the first result is the tracked resource.
type pairSpec struct {
	pkg, typ, acq, rel string
	keyArgs            int
}

func parsePairSpecs(s string) []pairSpec {
	var out []pairSpec
	for _, raw := range strings.Split(s, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		keyArgs := 0
		if at := strings.LastIndex(raw, "@"); at >= 0 {
			keyArgs, _ = strconv.Atoi(raw[at+1:])
			raw = raw[:at]
		}
		colon := strings.LastIndex(raw, ":")
		if colon < 0 {
			continue
		}
		qual, rel := raw[:colon], raw[colon+1:]
		dot := strings.LastIndex(qual, ".")
		if dot < 0 {
			continue
		}
		head, acq := qual[:dot], qual[dot+1:]
		sp := pairSpec{acq: acq, rel: rel, keyArgs: keyArgs}
		// A dot after head's last slash means its tail is a type name.
		if d := strings.LastIndex(head, "."); d > strings.LastIndex(head, "/") {
			sp.pkg, sp.typ = head[:d], head[d+1:]
		} else {
			sp.pkg = head
		}
		out = append(out, sp)
	}
	return out
}

func runReleasePair(pass *analysis.Pass) (interface{}, error) {
	if !pkgInList(pass.Pkg.Path(), releasepairPkgs) {
		return nil, nil
	}
	res := pass.ResultOf[ssax.Analyzer].(*ssax.Result)
	ra := &pairAnalysis{
		pass:     pass,
		ix:       newDirectiveIndex(pass),
		specs:    parsePairSpecs(releasepairPairs),
		reported: make(map[string]bool),
	}
	for _, fn := range res.All() {
		if isTestFile(pass.Fset, fn.Node.Pos()) {
			continue
		}
		ra.analyze(fn)
	}
	return nil, nil
}

type pairAnalysis struct {
	pass     *analysis.Pass
	ix       *directiveIndex
	specs    []pairSpec
	reported map[string]bool
}

// pairRes is one outstanding release obligation.
type pairRes struct {
	spec *pairSpec
	pos  token.Pos  // acquire position
	must bool       // held on every path into the current point
	key  string     // keyed mode: rendered receiver(+args)
	v    *types.Var // result mode: the local owning the resource
}

// pairState maps a resource identity to its obligation.
type pairState map[string]*pairRes

func (ra *pairAnalysis) keyedID(sp *pairSpec, key string) string {
	return "k|" + sp.acq + ":" + sp.rel + "|" + key
}

func varID(v *types.Var) string {
	return "v|" + strconv.Itoa(int(v.Pos()))
}

func clonePairState(s pairState) pairState {
	out := make(pairState, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// mergePair unions src into dst (may-held); an obligation missing from
// either side loses its must bit. Reports whether dst changed.
func mergePair(dst, src pairState) bool {
	changed := false
	for k, v := range src {
		if d, ok := dst[k]; !ok {
			c := *v
			c.must = false
			dst[k] = &c
			changed = true
		} else if d.must && !v.must {
			d.must = false
			changed = true
		}
	}
	for k, d := range dst {
		if _, ok := src[k]; !ok && d.must {
			d.must = false
			changed = true
		}
	}
	return changed
}

func (ra *pairAnalysis) analyze(fn *ssax.Func) {
	if len(fn.Blocks) == 0 {
		return
	}
	in := make([]pairState, len(fn.Blocks))
	in[0] = pairState{}
	work := []int{0}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		blk := fn.Blocks[bi]
		out := clonePairState(in[bi])
		for _, instr := range blk.Instrs {
			ra.transfer(out, instr, false)
		}
		for _, succ := range blk.Succs {
			if in[succ] == nil {
				in[succ] = clonePairState(out)
				work = append(work, succ)
			} else if mergePair(in[succ], out) {
				work = append(work, succ)
			}
		}
	}
	// Reporting pass: re-run each reachable block's transfer with
	// reporting on, then flag obligations still open at its exit.
	for bi, blk := range fn.Blocks {
		if in[bi] == nil {
			continue
		}
		st := clonePairState(in[bi])
		for _, instr := range blk.Instrs {
			ra.transfer(st, instr, true)
		}
		if blk.Exit == ssax.ExitNone {
			continue
		}
		for _, r := range st {
			ra.reportLeak(blk, r)
		}
	}
}

// transfer interprets one instruction against the open obligations.
func (ra *pairAnalysis) transfer(st pairState, instr ssax.Instr, report bool) {
	switch instr.Kind {
	case ssax.KAssign:
		// Result-mode acquire bound to a simple local?
		if len(instr.Rhs) == 1 && len(instr.Lhs) >= 1 {
			if call, ok := ast.Unparen(instr.Rhs[0]).(*ast.CallExpr); ok {
				if sp, fn := ra.matchAcquire(call); sp != nil && resultMode(fn) {
					ra.escapeUses(st, call.Args)
					ra.overwrite(st, instr.Lhs)
					if v := ra.localVar(instr.Lhs[0]); v != nil {
						st[varID(v)] = &pairRes{spec: sp, pos: call.Pos(), must: true, v: v}
					}
					// Bound to a field/index/blank: ownership stored
					// elsewhere (or dropped deliberately); not tracked.
					return
				}
			}
		}
		ra.escapeUses(st, instr.Rhs)
		ra.overwrite(st, instr.Lhs)
	case ssax.KCall:
		ra.call(st, instr, report)
	case ssax.KDefer:
		ra.deferred(st, instr.Call)
	case ssax.KGo:
		// The goroutine body is analyzed as its own function; its
		// arguments are evaluated now and escape.
		ra.escapeUses(st, instr.Call.Args)
	case ssax.KReturn:
		ret := instr.Node.(*ast.ReturnStmt)
		ra.escapeUses(st, ret.Results)
	case ssax.KSend:
		send := instr.Node.(*ast.SendStmt)
		ra.escapeUses(st, []ast.Expr{send.Value})
	}
}

func (ra *pairAnalysis) call(st pairState, instr ssax.Instr, report bool) {
	call := instr.Call
	if sp, fn := ra.matchAcquire(call); sp != nil {
		if resultMode(fn) {
			// Reached as a bare or nested call: if it is a statement,
			// the resource is discarded and can never be released.
			if instr.Stmt && report {
				ra.reportDiscard(call, sp)
			}
			ra.escapeUses(st, call.Args)
			return
		}
		if key, ok := ra.keyFor(call, sp); ok {
			st[ra.keyedID(sp, key)] = &pairRes{spec: sp, pos: call.Pos(), must: true, key: key}
		}
		return
	}
	if sp, key, ok := ra.matchKeyedRelease(call); ok {
		delete(st, ra.keyedID(sp, key))
		return
	}
	// Release method on a tracked result? Receiver method calls on the
	// resource otherwise leave the obligation open (sp.Int(...) is not
	// an escape); every other use of the resource in the call escapes.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := ra.localVar(sel.X); v != nil {
			if r, held := st[varID(v)]; held {
				if sel.Sel.Name == r.spec.rel {
					delete(st, varID(v))
				}
				ra.escapeUses(st, call.Args)
				return
			}
		}
	}
	ra.escapeUses(st, append([]ast.Expr{call.Fun}, call.Args...))
}

// deferred handles `defer f(...)`: a deferred release runs at every
// exit and discharges the obligation; a deferred closure is scanned for
// the releases it performs.
func (ra *pairAnalysis) deferred(st pairState, call *ast.CallExpr) {
	if sp, key, ok := ra.matchKeyedRelease(call); ok {
		delete(st, ra.keyedID(sp, key))
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := ra.localVar(sel.X); v != nil {
			if r, held := st[varID(v)]; held && sel.Sel.Name == r.spec.rel {
				delete(st, varID(v))
				return
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sp, key, ok := ra.matchKeyedRelease(inner); ok {
				delete(st, ra.keyedID(sp, key))
			} else if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok {
				if v := ra.localVar(sel.X); v != nil {
					if r, held := st[varID(v)]; held && sel.Sel.Name == r.spec.rel {
						delete(st, varID(v))
					}
				}
			}
			return true
		})
		return
	}
	ra.escapeUses(st, call.Args)
}

// matchAcquire returns the spec whose acquire f matches, or nil.
func (ra *pairAnalysis) matchAcquire(call *ast.CallExpr) (*pairSpec, *types.Func) {
	fn := typeutilCallee(ra.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	for i := range ra.specs {
		sp := &ra.specs[i]
		if fn.Name() == sp.acq && ra.matchesSpec(fn, sp) {
			return sp, fn
		}
	}
	return nil, nil
}

// matchKeyedRelease recognizes a call as the release of a keyed spec.
func (ra *pairAnalysis) matchKeyedRelease(call *ast.CallExpr) (*pairSpec, string, bool) {
	fn := typeutilCallee(ra.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, "", false
	}
	for i := range ra.specs {
		sp := &ra.specs[i]
		if fn.Name() != sp.rel || !ra.matchesSpec(fn, sp) {
			continue
		}
		if key, ok := ra.keyFor(call, sp); ok {
			return sp, key, true
		}
	}
	return nil, "", false
}

func (ra *pairAnalysis) matchesSpec(fn *types.Func, sp *pairSpec) bool {
	if fn.Pkg().Path() != sp.pkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sp.typ == "" {
		return sig.Recv() == nil
	}
	return sig.Recv() != nil && namedTypeName(sig.Recv().Type()) == sp.typ
}

func resultMode(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0
}

// keyFor renders the keyed identity: receiver plus the spec's leading
// arguments.
func (ra *pairAnalysis) keyFor(call *ast.CallExpr, sp *pairSpec) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	key := renderExpr(ra.pass.Fset, sel.X)
	if sp.keyArgs > 0 {
		if len(call.Args) < sp.keyArgs {
			return "", false
		}
		args := make([]string, 0, sp.keyArgs)
		for _, a := range call.Args[:sp.keyArgs] {
			args = append(args, renderExpr(ra.pass.Fset, a))
		}
		key += "(" + strings.Join(args, ",") + ")"
	}
	return key, true
}

// localVar resolves e to the local variable it names, or nil.
func (ra *pairAnalysis) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	var obj types.Object
	if d := ra.pass.TypesInfo.Defs[id]; d != nil {
		obj = d
	} else {
		obj = ra.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// escapeUses drops result-mode obligations whose resource appears
// anywhere in exprs: the release duty went with the value. A method
// call on a held resource is a use in place, not a hand-off, wherever
// it sits (v, err := l.Read(id) keeps l's obligation): only its
// arguments can carry a resource away.
func (ra *pairAnalysis) escapeUses(st pairState, exprs []ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if v := ra.localVar(sel.X); v != nil {
						if _, held := st[varID(v)]; held {
							ra.escapeUses(st, n.Args)
							return false
						}
					}
				}
			case *ast.Ident:
				if v, ok := ra.pass.TypesInfo.Uses[n].(*types.Var); ok {
					delete(st, varID(v))
				}
			}
			return true
		})
	}
}

// overwrite drops obligations for result variables being reassigned:
// the old resource's identity is gone (reassignment before release is
// itself a leak, but an untrackable one — the acquire's exit report
// covers the common shapes).
func (ra *pairAnalysis) overwrite(st pairState, lhs []ast.Expr) {
	for _, e := range lhs {
		if v := ra.localVar(e); v != nil {
			delete(st, varID(v))
		}
	}
}

func (ra *pairAnalysis) reportLeak(blk *ssax.Block, r *pairRes) {
	exitPos := blk.ExitPos
	dedup := strconv.Itoa(int(r.pos)) + "@" + strconv.Itoa(int(exitPos))
	if ra.reported[dedup] {
		return
	}
	ra.reported[dedup] = true
	if ra.pairOK(r.pos) || ra.pairOK(exitPos) {
		return
	}
	kind := "return"
	if blk.Exit == ssax.ExitPanic {
		kind = "panic"
	}
	var what, release string
	if r.v != nil {
		what = r.v.Name() + " (acquired by " + r.spec.acq + " at " + ra.pos(r.pos) + ")"
		release = r.v.Name() + "." + r.spec.rel + "()"
	} else {
		what = r.key + "." + r.spec.acq + " (at " + ra.pos(r.pos) + ")"
		release = releaseCallText(r)
	}
	diag := analysis.Diagnostic{
		Pos: exitPos,
		Message: what + " is not released on this " + kind +
			" path; call " + release + " before the " + kind +
			" (or defer it at acquisition), or annotate //lint:pairok <reason>",
	}
	// Safe fix only when the obligation is must-held at an explicit
	// return: insert the release right before the return statement.
	if r.must && blk.Exit == ssax.ExitReturn && blk.Return != nil && blk.Return.Pos().IsValid() {
		diag.SuggestedFixes = []analysis.SuggestedFix{{
			Message: "insert " + release + " before the return",
			TextEdits: []analysis.TextEdit{{
				Pos:     blk.Return.Pos(),
				End:     blk.Return.Pos(),
				NewText: []byte(release + "; "),
			}},
		}}
	}
	ra.pass.Report(diag)
}

func (ra *pairAnalysis) reportDiscard(call *ast.CallExpr, sp *pairSpec) {
	dedup := "d" + strconv.Itoa(int(call.Pos()))
	if ra.reported[dedup] {
		return
	}
	ra.reported[dedup] = true
	if ra.pairOK(call.Pos()) {
		return
	}
	ra.pass.Reportf(call.Pos(),
		"result of %s is discarded: nothing can ever call %s on it; bind the result and release it, or annotate //lint:pairok <reason>",
		sp.acq, sp.rel)
}

// pairOK reports whether a justified //lint:pairok covers pos; a bare
// directive gets its own diagnostic.
func (ra *pairAnalysis) pairOK(pos token.Pos) bool {
	ok, present := ra.ix.justified(pos, "pairok")
	if ok {
		return true
	}
	if present {
		dedup := "j" + strconv.Itoa(int(pos))
		if !ra.reported[dedup] {
			ra.reported[dedup] = true
			ra.pass.Reportf(pos, "//lint:pairok needs a reason for leaving a paired resource unreleased")
		}
		return true
	}
	return false
}

func releaseCallText(r *pairRes) string {
	recv := r.key
	args := ""
	if i := strings.IndexByte(recv, '('); i >= 0 {
		args = recv[i+1 : len(recv)-1]
		recv = recv[:i]
	}
	return recv + "." + r.spec.rel + "(" + args + ")"
}

func (ra *pairAnalysis) pos(p token.Pos) string {
	pos := ra.pass.Fset.Position(p)
	return pos.Filename[strings.LastIndexByte(pos.Filename, '/')+1:] + ":" + strconv.Itoa(pos.Line)
}
