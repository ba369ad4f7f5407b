package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLintConfigNamesRealFiles: the analyzers gate files, packages and
// pairs by name, so a rename would silently drop one from its gate.
// Every hot-path and monotonic file suffix must name a non-test Go file
// of the repository, every package lockguard and releasepair check or
// treat as blocking must exist, and every module-local releasepair pair
// must name a real acquire — a method of its type (interface methods
// included) or a package function — and a real release on the same
// type, or on the acquire's result type for a result pair.
func TestLintConfigNamesRealFiles(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, list := range []string{hotpathFiles, monotonicFiles} {
		for _, suf := range strings.Split(list, ",") {
			if !strings.HasSuffix(suf, ".go") || strings.HasSuffix(suf, "_test.go") {
				t.Errorf("%q is not a non-test Go file", suf)
			} else if _, err := os.Stat(filepath.Join(root, suf)); err != nil {
				t.Errorf("gated file %q: %v", suf, err)
			}
		}
	}
	for _, list := range []string{lockguardPkgs, lockguardBlockPkgs, releasepairPkgs} {
		for _, pkg := range strings.Split(list, ",") {
			rel, ok := strings.CutPrefix(pkg, ModulePath+"/")
			if !ok {
				t.Errorf("package %q is outside module %s", pkg, ModulePath)
				continue
			}
			if gos, _ := filepath.Glob(filepath.Join(root, rel, "*.go")); len(gos) == 0 {
				t.Errorf("package %q has no Go files", pkg)
			}
		}
	}
	for _, sp := range parsePairSpecs(releasepairPairs) {
		rel, ok := strings.CutPrefix(sp.pkg, ModulePath+"/")
		if !ok {
			continue // a standard-library pair (sync)
		}
		decls := declaredFuncs(t, filepath.Join(root, rel))
		acq := sp.acq
		if sp.typ != "" {
			acq = sp.typ + "." + sp.acq
		}
		res, ok := decls[acq]
		if !ok {
			t.Errorf("releasepair pair %s.%s:%s: %s declares no %s", sp.pkg, acq, sp.rel, rel, acq)
			continue
		}
		owner := sp.typ // keyed: the release is on the same receiver
		if res != "" {
			owner = res // result pair: the release is on the resource
		}
		if _, ok := decls[owner+"."+sp.rel]; !ok {
			t.Errorf("releasepair pair %s.%s:%s: %s declares no %s.%s", sp.pkg, acq, sp.rel, rel, owner, sp.rel)
		}
	}
}

// declaredFuncs maps every function ("F") and method ("T.M", interface
// methods included) a package's non-test files declare to the type
// name of its first result, "" when that is not a local named type.
func declaredFuncs(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	out := map[string]string{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = localTypeName(d.Recv.List[0].Type) + "." + name
				}
				out[name] = firstResultType(d.Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							ft, _ := m.Type.(*ast.FuncType)
							for _, n := range m.Names {
								out[ts.Name.Name+"."+n.Name] = firstResultType(ft)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// firstResultType is the local type name of a signature's first result.
func firstResultType(ft *ast.FuncType) string {
	if ft == nil || ft.Results == nil || len(ft.Results.List) == 0 {
		return ""
	}
	return localTypeName(ft.Results.List[0].Type)
}

// localTypeName strips pointers and type arguments from a type
// expression and returns its name, "" when it names no local type.
func localTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestFuzzListsNameRealTargets: verify.sh's `fuzz seeds` stage and the
// Makefile's `fuzz` target name the fuzz targets one by one, so a new
// target could be left out of both and a renamed one would drop out
// silently. Every `func Fuzz*` in the repository must appear in both,
// with its package, and every name there must be a real target.
func TestFuzzListsNameRealTargets(t *testing.T) {
	root := filepath.Join("..", "..")
	funcRe := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	targets := map[string]string{} // name -> package dir, "./internal/..."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllStringSubmatch(string(src), -1) {
			targets[m[1]] = "./" + filepath.ToSlash(rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}

	verify, err := os.ReadFile(filepath.Join(root, "verify.sh"))
	if err != nil {
		t.Fatal(err)
	}
	stage := regexp.MustCompile(`stage 'fuzz seeds' go test [^\n]*-run '\^\(([\w|]+)\)\$'((?:[^\n]*\\\n)*[^\n]*)`).FindSubmatch(verify)
	if stage == nil {
		t.Fatal("verify.sh has no `fuzz seeds` stage running a -run '^(A|B)$' list")
	}
	seedPkgs := map[string]bool{}
	for _, f := range strings.Fields(string(stage[2])) {
		if strings.HasPrefix(f, "./") {
			seedPkgs[f] = true
		}
	}
	seedNames := map[string]bool{}
	for _, name := range strings.Split(string(stage[1]), "|") {
		seedNames[name] = true
		if _, ok := targets[name]; !ok {
			t.Errorf("verify.sh fuzz seeds names %s, which is no fuzz target", name)
		}
	}

	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	fuzzRule := regexp.MustCompile(`(?m)^fuzz:\n((?:\t[^\n]*\n)*)`).FindSubmatch(makefile)
	if fuzzRule == nil {
		t.Fatal("Makefile has no fuzz target")
	}
	makePkg := map[string]string{}
	for _, m := range regexp.MustCompile(`-fuzz '\^(\w+)\$\$'[^\n]* (\./\S+)`).FindAllSubmatch(fuzzRule[1], -1) {
		makePkg[string(m[1])] = string(m[2])
		if _, ok := targets[string(m[1])]; !ok {
			t.Errorf("make fuzz runs %s, which is no fuzz target", m[1])
		}
	}

	for name, pkg := range targets {
		if !seedNames[name] || !seedPkgs[pkg] {
			t.Errorf("%s (%s) is missing from verify.sh's fuzz seeds stage", name, pkg)
		}
		if got, ok := makePkg[name]; !ok {
			t.Errorf("%s (%s) is missing from make fuzz", name, pkg)
		} else if got != pkg {
			t.Errorf("make fuzz runs %s in %s, but it lives in %s", name, got, pkg)
		}
	}
}

// TestLintRepoClean builds cmd/whatiflint and runs it exactly the way
// verify.sh does — through go vet -vettool — over the whole repository,
// asserting the gate stays clean.
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole repository")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "whatiflint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/whatiflint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building whatiflint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("whatiflint reported findings:\n%s", out)
	}
}
