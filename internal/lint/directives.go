package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// The suite's escape hatches are //lint: directives. Marker directives
// declare scope; justification directives silence one diagnostic and
// must carry a non-empty reason, so every exception is reviewable:
//
//	//lint:hotpath                  marks a file as a hot path
//	                                (hotpathfmt applies in addition to
//	                                its built-in file list)
//	//lint:monotonic                marks a file as span-recording
//	                                (monotonic applies in addition to
//	                                its built-in file list)
//	//lint:coldfmt <reason>         package-level: this package's fmt/
//	                                reflect use was reviewed and stays
//	                                off the hot path; stops hotpathfmt's
//	                                transitive-reach propagation
//	//lint:hotpathok <reason>       on an import in a hot-path file:
//	                                accept this one formatting-capable
//	                                dependency edge
//	//lint:semdefault <reason>      on a switch: justify non-exhaustive
//	                                handling of a semantics/mode enum
//	//lint:ctxok <reason>           on a context.Background()/TODO()
//	                                call: justify minting a context in
//	                                library code (API-boundary shims)
//	//lint:lockok <reason>          on a blocking call under a lock:
//	                                justify blocking inside the
//	                                critical section
//	//lint:wallclock <reason>       on a wall-clock read in a monotonic
//	                                file: justify the wall-clock use
//	//lint:pairok <reason>          on a paired acquire (or the exit it
//	                                leaks through): justify leaving the
//	                                resource unreleased on that path
//
// A justification directive applies to the line it is on or to the
// line directly below it (i.e. it may trail the statement or sit on
// its own line immediately above).

// directive is one parsed //lint: comment.
type directive struct {
	name   string
	reason string
	line   int
}

// directiveIndex indexes a pass's //lint: directives by file and line.
type directiveIndex struct {
	fset *token.FileSet
	// byFile maps filename → line → directives on that line.
	byFile map[string]map[int][]directive
	// fileMarks maps filename → set of marker-directive names present
	// anywhere in the file.
	fileMarks map[string]map[string]directive
}

// newDirectiveIndex scans every comment of every file in the pass.
func newDirectiveIndex(pass *analysis.Pass) *directiveIndex {
	ix := &directiveIndex{
		fset:      pass.Fset,
		byFile:    make(map[string]map[int][]directive),
		fileMarks: make(map[string]map[string]directive),
	}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.FileStart)
		if tf == nil {
			continue
		}
		name := tf.Name()
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				dname, reason, _ := strings.Cut(text, " ")
				d := directive{
					name:   strings.TrimSpace(dname),
					reason: strings.TrimSpace(reason),
					line:   pass.Fset.Position(c.Pos()).Line,
				}
				if d.name == "" {
					continue
				}
				lm := ix.byFile[name]
				if lm == nil {
					lm = make(map[int][]directive)
					ix.byFile[name] = lm
				}
				lm[d.line] = append(lm[d.line], d)
				fm := ix.fileMarks[name]
				if fm == nil {
					fm = make(map[string]directive)
					ix.fileMarks[name] = fm
				}
				if _, dup := fm[d.name]; !dup {
					fm[d.name] = d
				}
			}
		}
	}
	return ix
}

// at returns the named directive governing pos: on the same line, or on
// the line directly above.
func (ix *directiveIndex) at(pos token.Pos, name string) (directive, bool) {
	p := ix.fset.Position(pos)
	lm := ix.byFile[p.Filename]
	if lm == nil {
		return directive{}, false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range lm[line] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// justified reports whether pos carries the named directive with a
// non-empty reason. When the directive is present but reasonless it
// reports false and the caller's diagnostic should say a reason is
// required.
func (ix *directiveIndex) justified(pos token.Pos, name string) (ok, present bool) {
	d, found := ix.at(pos, name)
	if !found {
		return false, false
	}
	return d.reason != "", true
}

// fileMarked reports whether the file containing f carries the named
// marker directive anywhere.
func (ix *directiveIndex) fileMarked(f *ast.File, name string) bool {
	tf := ix.fset.File(f.FileStart)
	if tf == nil {
		return false
	}
	fm := ix.fileMarks[tf.Name()]
	_, ok := fm[name]
	return ok
}

// packageDirective returns the first occurrence of a package-scoped
// directive (e.g. coldfmt) across the pass's files, in file order.
func packageDirective(pass *analysis.Pass, ix *directiveIndex, name string) (directive, bool) {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.FileStart)
		if tf == nil {
			continue
		}
		if d, ok := ix.fileMarks[tf.Name()][name]; ok {
			return d, true
		}
	}
	return directive{}, false
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// fileMatches reports whether the file containing f ends with one of
// the slash-separated path suffixes in list (comma-separated).
func fileMatches(fset *token.FileSet, f *ast.File, list string) bool {
	tf := fset.File(f.FileStart)
	if tf == nil {
		return false
	}
	name := strings.ReplaceAll(tf.Name(), "\\", "/")
	for _, suf := range strings.Split(list, ",") {
		suf = strings.TrimSpace(suf)
		if suf == "" {
			continue
		}
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// pkgInList reports whether path appears in the comma-separated list.
func pkgInList(path, list string) bool {
	for _, p := range strings.Split(list, ",") {
		if strings.TrimSpace(p) == path {
			return true
		}
	}
	return false
}
