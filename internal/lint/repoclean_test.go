package lint

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLintConfigNamesRealFiles: the analyzers gate files and packages by
// name, so a rename would silently drop one from its gate. Every
// hot-path and monotonic file suffix must name a non-test Go file of the
// repository, and every package lockguard and releasepair check or
// treat as blocking must exist.
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
