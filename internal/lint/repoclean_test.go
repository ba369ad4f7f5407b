package lint

import (
	"os"
	"os/exec"
	"path/filepath"
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
