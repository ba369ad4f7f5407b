package lint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Monotonic keeps span timestamps on the monotonic clock. The span
// recorder prices every span as a time.Since offset against the trace
// epoch; a wall-clock read on a recording path (Unix*, Format) or a
// monotonic-stripping transform (Round, Truncate) silently breaks span
// math across NTP steps and suspend/resume. Files on the recording
// path — the built-in list plus files marked //lint:monotonic — may
// construct and compare times only through the monotonic-safe API
// (time.Now as an epoch, time.Since, Time.Sub).
//
// Round(0)/Truncate(0) — the idiom for deliberately stripping the
// monotonic reading — carries a suggested fix that deletes the call,
// which preserves the monotonic clock and is the safe -fix.
// Everything else needs a human: annotate //lint:wallclock <reason>
// for a reviewed wall-clock read.
var Monotonic = &analysis.Analyzer{
	Name: "monotonic",
	Doc:  "span-recording files must use the monotonic clock: no wall-clock extraction (Unix*, Format) or monotonic stripping (Round, Truncate)",
	Run:  runMonotonic,
}

var monotonicFiles = "internal/trace/trace.go,internal/core/exec.go,internal/chunk/pool.go"

func init() {
	Monotonic.Flags.StringVar(&monotonicFiles, "files",
		monotonicFiles, "comma-separated path suffixes of span-recording files (in addition to //lint:monotonic markers)")
}

// wallClockMethods are time.Time methods that read the wall clock or
// strip the monotonic reading.
var wallClockMethods = map[string]string{
	"Unix":          "reads the wall clock",
	"UnixNano":      "reads the wall clock",
	"UnixMilli":     "reads the wall clock",
	"UnixMicro":     "reads the wall clock",
	"Format":        "formats the wall clock",
	"AppendFormat":  "formats the wall clock",
	"Round":         "strips the monotonic reading",
	"Truncate":      "strips the monotonic reading",
	"MarshalJSON":   "serializes the wall clock",
	"MarshalText":   "serializes the wall clock",
	"MarshalBinary": "serializes the wall clock",
}

func runMonotonic(pass *analysis.Pass) (interface{}, error) {
	ix := newDirectiveIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.FileStart) {
			continue
		}
		if !fileMatches(pass.Fset, f, monotonicFiles) && !ix.fileMarked(f, "monotonic") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			why, bad := wallClockMethods[fn.Name()]
			if !bad || !isTimeTime(fn) {
				return true
			}
			if ok, present := ix.justified(call.Pos(), "wallclock"); ok {
				return true
			} else if present {
				pass.Reportf(call.Pos(), "//lint:wallclock needs a reason for a wall-clock read on a span-recording path")
				return true
			}
			diag := analysis.Diagnostic{
				Pos: call.Pos(),
				Message: "time.Time." + fn.Name() + " " + why +
					" on a span-recording path; timestamp with time.Since against the trace epoch, or annotate //lint:wallclock <reason>",
			}
			// Safe fix: X.Round(0) / X.Truncate(0) → X keeps the
			// monotonic reading, which is exactly what this path wants.
			if (fn.Name() == "Round" || fn.Name() == "Truncate") && len(call.Args) == 1 {
				if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
					if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
						diag.SuggestedFixes = []analysis.SuggestedFix{{
							Message: "remove the monotonic-stripping " + fn.Name() + "(0)",
							TextEdits: []analysis.TextEdit{{
								Pos: sel.X.End(), End: call.End(), NewText: nil,
							}},
						}}
					}
				}
			}
			pass.Report(diag)
			return true
		})
	}
	return nil, nil
}

// isTimeTime reports whether fn is a method of time.Time.
func isTimeTime(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeName(sig.Recv().Type()) == "Time"
}
