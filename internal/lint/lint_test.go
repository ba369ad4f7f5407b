package lint

import (
	"bytes"
	"encoding/gob"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"whatifolap/internal/lint/driver"
	"whatifolap/internal/lint/linttest"
)

// override points a flag-backed configuration variable at testdata for
// the duration of one test.
func override(t *testing.T, p *string, v string) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

func TestLintHotpathFmt(t *testing.T) {
	linttest.Run(t, "testdata", HotpathFmt, "hotfmt/hot")
}

func TestLintSemExhaustive(t *testing.T) {
	override(t, &semEnums, "persp.Semantics,persp.Mode")
	linttest.Run(t, "testdata", SemExhaustive, "semx")
}

func TestLintCtxFlow(t *testing.T) {
	override(t, &ctxflowPkgs, "ctxa,ctxmain")
	override(t, &ctxflowReadCalls, "chunkx.Store.ReadChunk")
	linttest.Run(t, "testdata", CtxFlow, "ctxa", "ctxmain")
}

func TestLintLockGuard(t *testing.T) {
	override(t, &lockguardPkgs, "lockx")
	override(t, &lockguardBlockPkgs, "diskx,obsx")
	linttest.Run(t, "testdata", LockGuard, "lockx")
}

func TestLintMonotonic(t *testing.T) {
	linttest.Run(t, "testdata", Monotonic, "mono")
}

// TestLintMonotonicFix applies the Round(0)/Truncate(0) suggested fix
// on a scratch copy of the mono testdata and checks the result still
// parses with the stripping call removed.
func TestLintMonotonicFix(t *testing.T) {
	srcRoot := filepath.Join(t.TempDir(), "src")
	monoDir := filepath.Join(srcRoot, "mono")
	if err := os.MkdirAll(monoDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mono.go", "off.go"} {
		data, err := os.ReadFile(filepath.Join("testdata", "src", "mono", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(monoDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l := driver.NewTestdata(srcRoot)
	if _, err := l.Load("mono"); err != nil {
		t.Fatal(err)
	}
	diags, err := driver.Run(l.Fset, l.Order(), []*analysis.Analyzer{Monotonic})
	if err != nil {
		t.Fatal(err)
	}
	n, err := driver.ApplyFixes(l.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("applied %d fixes, want 1 (only Round(0) carries a safe fix)", n)
	}
	fixed, err := os.ReadFile(filepath.Join(monoDir, "mono.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fixed), "Round(0)") {
		t.Fatalf("Round(0) survived the fix:\n%s", fixed)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "mono.go", fixed, 0); err != nil {
		t.Fatalf("fixed file no longer parses: %v", err)
	}
}

func TestLintReleasePair(t *testing.T) {
	override(t, &releasepairPkgs, "pairx")
	override(t, &releasepairPairs,
		"pairx.Mu.Lock:Unlock,pairx.Pool.Pin:Unpin@1,pairx.T.Start:End,pairx.NewRes:Seal,pairx.Store.Lease:Release")
	linttest.Run(t, "testdata", ReleasePair, "pairx")
}

// TestLintReleasePairFix applies releasepair's suggested fixes (insert
// the release before a must-held early return) on a scratch copy of the
// pairx testdata and checks the patched files still parse with the
// releases inserted.
func TestLintReleasePairFix(t *testing.T) {
	override(t, &releasepairPkgs, "pairx")
	override(t, &releasepairPairs,
		"pairx.Mu.Lock:Unlock,pairx.Pool.Pin:Unpin@1,pairx.T.Start:End,pairx.NewRes:Seal,pairx.Store.Lease:Release")
	srcRoot := filepath.Join(t.TempDir(), "src")
	pairDir := filepath.Join(srcRoot, "pairx")
	if err := os.MkdirAll(pairDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"api.go", "use.go"} {
		data, err := os.ReadFile(filepath.Join("testdata", "src", "pairx", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pairDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l := driver.NewTestdata(srcRoot)
	if _, err := l.Load("pairx"); err != nil {
		t.Fatal(err)
	}
	diags, err := driver.Run(l.Fset, l.Order(), []*analysis.Analyzer{ReleasePair})
	if err != nil {
		t.Fatal(err)
	}
	n, err := driver.ApplyFixes(l.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected releasepair to offer at least one safe fix")
	}
	fixed, err := os.ReadFile(filepath.Join(pairDir, "use.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "m.Unlock(); ") {
		t.Fatalf("lockLeak's early return was not patched:\n%s", fixed)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "use.go", fixed, 0); err != nil {
		t.Fatalf("fixed file no longer parses: %v", err)
	}
}

// TestLintFactGobRoundTrip pins that every fact type the analyzers
// export survives gob encoding — the serialization go vet's
// unitchecker uses to ship facts between packages — so the offline
// driver and the -vettool gate see identical cross-package behavior.
func TestLintFactGobRoundTrip(t *testing.T) {
	facts := []analysis.Fact{
		&ReachesFormatting{Chain: []string{"whatifolap/internal/shim", "fmt"}},
	}
	for _, f := range facts {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatalf("encoding %T: %v", f, err)
		}
		out := reflect.New(reflect.TypeOf(f).Elem()).Interface()
		if err := gob.NewDecoder(&buf).Decode(out); err != nil {
			t.Fatalf("decoding %T: %v", f, err)
		}
		if !reflect.DeepEqual(f, out) {
			t.Fatalf("%T round-trip mismatch: %#v != %#v", f, f, out)
		}
	}
}
