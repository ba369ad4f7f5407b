package dimension

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// walkPath is the path of id as the parent chain spells it: the oracle
// of the index's paths.
func walkPath(d *Dimension, id MemberID) string {
	var parts []string
	for m := d.Member(id); m.Parent != None; m = d.Member(m.Parent) {
		parts = append([]string{m.Name}, parts...)
	}
	return strings.Join(parts, "/")
}

// walkLeaves and walkHeight are the subtree walks the index's ranges and
// heights replace.
func walkLeaves(d *Dimension, id MemberID) []int {
	m := d.Member(id)
	if m.IsLeaf() && m.Parent != None {
		return []int{m.LeafOrdinal}
	}
	var out []int
	for _, c := range m.Children {
		out = append(out, walkLeaves(d, c)...)
	}
	slices.Sort(out)
	return out
}

func walkHeight(d *Dimension, id MemberID) int {
	h := 0
	for _, c := range d.Member(id).Children {
		h = max(h, walkHeight(d, c)+1)
	}
	return h
}

// assertIndexMatchesWalks checks every member's path, leaf ranges and
// height against the walks over the member table.
func assertIndexMatchesWalks(t *testing.T, label string, d *Dimension) {
	t.Helper()
	for id := MemberID(0); int(id) < d.NumMembers(); id++ {
		if got, want := d.Path(id), walkPath(d, id); got != want {
			t.Fatalf("%s: Path(%d) = %q, want %q", label, id, got, want)
		}
		var got []int
		d.LeafRanges(id, func(lo, hi int) {
			if n := len(got); n > 0 && got[n-1] >= lo || lo >= hi {
				t.Fatalf("%s: member %d: range [%d,%d) after %v is not ascending and disjoint", label, id, lo, hi, got)
			}
			for o := lo; o < hi; o++ {
				got = append(got, o)
			}
		})
		if want := walkLeaves(d, id); !slices.Equal(got, want) || !slices.Equal(d.LeafDescendants(id), want) {
			t.Fatalf("%s: leaves of %q = %v (LeafDescendants %v), want %v", label, walkPath(d, id), got, d.LeafDescendants(id), want)
		}
		if got, want := d.Height(id), walkHeight(d, id); got != want {
			t.Fatalf("%s: Height(%q) = %d, want %d", label, walkPath(d, id), got, want)
		}
	}
}

// randomHierarchy grows a dimension of n members under random parents,
// reading the index between additions so that each Add must drop it.
func randomHierarchy(t *testing.T, rng *rand.Rand, n int) *Dimension {
	d := New("D", false)
	for i := 0; i < n; i++ {
		parent := MemberID(rng.Intn(d.NumMembers()))
		name := fmt.Sprintf("m%d", rng.Intn(n)) // repeated names make instances
		if _, err := d.Add(d.Path(parent), name); err != nil {
			continue // a duplicate path
		}
		if rng.Intn(4) == 0 {
			assertIndexMatchesWalks(t, fmt.Sprintf("after add %d", i), d)
		}
	}
	return d
}

// TestIndexAfterAdd: paths, leaf ranges and heights read from the index
// follow every Add — a leaf promoted to a parent renumbers the leaves
// after it — on the paper's dimensions and on random hierarchies.
func TestIndexAfterAdd(t *testing.T) {
	assertIndexMatchesWalks(t, "Time", buildTime(t))
	org := buildOrg(t)
	assertIndexMatchesWalks(t, "Organization", org)
	org.MustAdd("FTE/Sue", "Intern") // Sue stops being a leaf
	assertIndexMatchesWalks(t, "Organization after promoting Sue", org)
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 20; i++ {
		assertIndexMatchesWalks(t, fmt.Sprintf("random %d", i), randomHierarchy(t, rng, 5+rng.Intn(60)))
	}
}

// TestIndexOnExtension: an extension answers paths, leaf ranges and
// heights from its base's index for the members it shares, and from its
// own tail for the members it added — whose leaves lie past the base's
// and join the ranges of their ancestors — and so does an extension of
// an extension. The base's answers do not change, and a childless root
// that gains a hypothetical leaf has height 1.
func TestIndexOnExtension(t *testing.T) {
	org := buildOrg(t)
	before := fingerprint(org)
	e1 := org.Extend()
	e1.mustAddHypothetical(t, "FTE", "Newbie")
	e1.mustAddHypothetical(t, "PTE", "Sue")
	assertIndexMatchesWalks(t, "extension", e1)
	e2 := e1.Extend()
	e2.mustAddHypothetical(t, "", "Floater")
	e2.mustAddHypothetical(t, "Contractor", "Lisa")
	assertIndexMatchesWalks(t, "extension of an extension", e2)
	assertIndexMatchesWalks(t, "base", org)
	if fingerprint(org) != before {
		t.Fatalf("extending changed the base:\n%s\nwant\n%s", fingerprint(org), before)
	}
	empty := New("Empty", false).Extend()
	empty.mustAddHypothetical(t, "", "Only")
	assertIndexMatchesWalks(t, "extended empty dimension", empty)
}

// TestConcurrentDimensionIndex: many readers of a published dimension
// and of extensions of it build the index at once; each reads the same
// paths, ranges and heights, whichever build is published.
func TestConcurrentDimensionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		d := randomHierarchy(t, rng, 300)
		d.idx.Store(nil)
		want := make([]string, d.NumMembers())
		for id := range want {
			want[id] = walkPath(d, MemberID(id))
		}
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := d
				if g%2 == 1 {
					x = d.Extend()
				}
				for id := MemberID(0); int(id) < len(want); id++ {
					lo, hi := -1, -1
					x.LeafRanges(id, func(l, h int) { lo, hi = l, h })
					if x.Path(id) != want[id] || x.Height(id) < 0 || d.Member(id).IsLeaf() && id != 0 && (lo != d.Member(id).LeafOrdinal || hi != lo+1) {
						errs <- fmt.Sprintf("reader %d: member %d: path %q want %q, range [%d,%d)", g, id, x.Path(id), want[id], lo, hi)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestPathAllocatesNothing: reading a path — of a base member, of a
// member an extension shares and of one it added — allocates nothing
// once the index is built.
func TestPathAllocatesNothing(t *testing.T) {
	org := buildOrg(t)
	ext := org.Extend()
	added := ext.mustAddHypothetical(t, "FTE", "Newbie")
	joe := org.MustLookup("FTE/Joe")
	org.Path(joe)
	if n := testing.AllocsPerRun(100, func() { org.Path(joe); ext.Path(joe); ext.Path(added) }); n != 0 {
		t.Fatalf("Path allocates %.0f times", n)
	}
}
