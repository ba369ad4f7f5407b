// Command whatiflint runs the engine's six go/analysis rules
// (internal/lint): hotpathfmt, semexhaustive, ctxflow, lockguard,
// monotonic and releasepair.
//
// It speaks two protocols:
//
//   - As a vet tool: `go vet -vettool=$(which whatiflint) ./...`. The
//     go command invokes the binary once per package with a *.cfg file
//     (and once with -V=full for the version handshake); both are
//     delegated to unitchecker. This is the production gate wired into
//     verify.sh and `make lint`.
//
//   - Standalone: `whatiflint [-dir root] [-fix] [-json] [packages...]`.
//     The offline driver loads the module (vendored deps included)
//     without go/packages and runs the same analyzers. -fix applies
//     the safe suggested fixes (monotonic's Round(0)/Truncate(0)
//     strips, releasepair's release-before-return inserts). -json
//     writes machine-readable diagnostics (file/line/col/analyzer/
//     message) to stdout for CI and editor integration. Analyzer flags
//     use vet's namespacing, e.g. -hotpathfmt.files=...
//     -semexhaustive.enums=....
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"whatifolap/internal/lint"
	"whatifolap/internal/lint/driver"
)

func main() {
	// go vet's invocation shapes: the -V=full handshake, a -flags
	// capability probe, then one *.cfg per package. Anything else is
	// standalone mode.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" || arg == "-flags" || arg == "--flags" ||
			strings.HasSuffix(arg, ".cfg") {
			unitchecker.Main(named(lint.Analyzers())...) // never returns
		}
	}
	os.Exit(standalone())
}

// named prefixes every diagnostic with its analyzer's name: go vet's
// plain output prints only the position and the message, and a gate
// failure should say which rule fired.
func named(as []*analysis.Analyzer) []*analysis.Analyzer {
	for _, a := range as {
		run := a.Run
		a.Run = func(pass *analysis.Pass) (interface{}, error) {
			report := pass.Report
			pass.Report = func(d analysis.Diagnostic) {
				d.Message = a.Name + ": " + d.Message
				report(d)
			}
			return run(pass)
		}
	}
	return as
}

// jsonDiag is one -json output record.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func standalone() int {
	fix := flag.Bool("fix", false, "apply safe suggested fixes in place")
	jsonOut := flag.Bool("json", false, "write diagnostics as a JSON array on stdout")
	dir := flag.String("dir", ".", "module root to analyze")
	analyzers := lint.Analyzers()
	for _, a := range analyzers {
		prefix := a.Name + "."
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, prefix+f.Name, f.Usage)
		})
	}
	flag.Parse()

	l, err := driver.New(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatiflint:", err)
		return 2
	}
	paths := flag.Args()
	if len(paths) == 0 {
		paths, err = modulePackages(l)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatiflint:", err)
			return 2
		}
	}
	for _, p := range paths {
		if _, err := l.Load(p); err != nil {
			fmt.Fprintln(os.Stderr, "whatiflint:", err)
			return 2
		}
	}

	diags, err := driver.Run(l.Fset, l.Order(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatiflint:", err)
		return 2
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			pos := l.Fset.Position(d.Pos)
			out = append(out, jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer.Name,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "whatiflint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Position(l.Fset), d.Message, d.Analyzer.Name)
		}
	}
	if *fix {
		n, err := driver.ApplyFixes(l.Fset, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whatiflint: applying fixes:", err)
			return 2
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "whatiflint: applied %d fixes; re-run to confirm\n", n)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// modulePackages walks the module for directories with buildable Go
// files, skipping vendor/, testdata/ and hidden trees.
func modulePackages(l *driver.Loader) ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.ModuleDir {
			name := d.Name()
			if name == "vendor" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
		}
		if !dirHasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

func dirHasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
