package mdx

import (
	"reflect"
	"testing"
)

// FuzzParse asserts the extended-MDX parser never panics, whatever the
// input. Errors are the expected outcome for garbage. It also checks
// Normalize, the result cache's key: normalizing is idempotent, and a
// normalized query parses to the same AST as its source (or both fail),
// so two texts sharing a key always mean the same query.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"select {x} on columns from [A]",
		"WITH perspective {(Jan)} for D STATIC select {x} on columns from [A]",
		"WITH CHANGES {([a],[b],[c],[d])} select {x} on columns from [A] where (y)",
		"select NON EMPTY {CrossJoin({a},Union({b},Head(Descendants([c],1,SELF),3)))} on columns from [A]",
		"select {[A].Levels(0).Members} on columns, {[B].Children} DIMENSION PROPERTIES [D] on rows from [W]",
		"select {", "WITH", "{{{{", "[[", "(((", "}}}}", "select {x} on",
		"-- comment only", "select {1e99999} on columns from [A]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatal("nil query without error")
		}
		norm, nerr := Normalize(src)
		if nerr != nil {
			return
		}
		if again, err := Normalize(norm); err != nil || again != norm {
			t.Fatalf("Normalize not idempotent: %q -> %q -> %q (%v)", src, norm, again, err)
		}
		nq, nqErr := Parse(norm)
		if (err == nil) != (nqErr == nil) {
			t.Fatalf("Parse(%q) err = %v, but Parse of its normal form %q err = %v", src, err, norm, nqErr)
		}
		if err == nil && !reflect.DeepEqual(q, nq) {
			t.Fatalf("%q and its normal form %q parse to different queries:\n%#v\n%#v", src, norm, q, nq)
		}
	})
}
