package perspective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"whatifolap/internal/bitset"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
)

func joeBinding(t testing.TB) *dimension.Binding {
	t.Helper()
	c := paperdata.Warehouse()
	return c.BindingFor("Organization")
}

func vs(t *testing.T, r *Result, path string) *bitset.Set {
	t.Helper()
	id := r.Binding.Varying.MustLookup(path)
	s, ok := r.VSOut[id]
	if !ok {
		t.Fatalf("no VSOut entry for %s", path)
	}
	return s
}

func wantSet(t *testing.T, got *bitset.Set, want ...int) {
	t.Helper()
	w := bitset.FromSlice(got.Universe(), want)
	if !got.Equal(w) {
		t.Fatalf("VS = %v, want %v", got, w)
	}
}

// Paper §3.3: "In our example, consider perspective Jan. Under static
// semantics, instance FTE/Joe will have VSout = {Jan} ... Rows for
// PTE/Joe and Contractor/Joe are removed."
func TestStaticSinglePerspectivePaperExample(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(Static, b, []int{paperdata.Jan})
	if err != nil {
		t.Fatal(err)
	}
	wantSet(t, vs(t, r, "FTE/Joe"), paperdata.Jan)
	if !vs(t, r, "PTE/Joe").IsEmpty() || !vs(t, r, "Contractor/Joe").IsEmpty() {
		t.Fatal("PTE/Joe and Contractor/Joe should be dropped under static{Jan}")
	}
	// Non-varying members keep full validity.
	if got := vs(t, r, "FTE/Lisa"); got.Len() != 12 {
		t.Fatalf("Lisa VS = %v, want all 12 months", got)
	}
}

// Paper §3.3: "Under forward semantics, FTE/Joe will have
// VSout = {Jan, ..., Apr, Jun, ...}" — i.e. every month except May,
// where no instance of Joe exists.
func TestForwardSinglePerspectivePaperExample(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(Forward, b, []int{paperdata.Jan})
	if err != nil {
		t.Fatal(err)
	}
	wantSet(t, vs(t, r, "FTE/Joe"),
		paperdata.Jan, paperdata.Feb, paperdata.Mar, paperdata.Apr,
		paperdata.Jun, paperdata.Jul, paperdata.Aug, paperdata.Sep,
		paperdata.Oct, paperdata.Nov, paperdata.Dec)
	if !vs(t, r, "PTE/Joe").IsEmpty() {
		t.Fatal("PTE/Joe should be dropped (not valid at Jan)")
	}
}

// Paper Fig. 4 setting: P = {Feb, Apr}, forward. PTE/Joe covers
// [Feb, Apr) and Contractor/Joe covers [Apr, ∞) minus May; FTE/Joe is
// dropped.
func TestForwardMultiPerspectiveFig4(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(Forward, b, []int{paperdata.Feb, paperdata.Apr})
	if err != nil {
		t.Fatal(err)
	}
	wantSet(t, vs(t, r, "PTE/Joe"), paperdata.Feb, paperdata.Mar)
	wantSet(t, vs(t, r, "Contractor/Joe"),
		paperdata.Apr, paperdata.Jun, paperdata.Jul, paperdata.Aug,
		paperdata.Sep, paperdata.Oct, paperdata.Nov, paperdata.Dec)
	if !vs(t, r, "FTE/Joe").IsEmpty() {
		t.Fatal("FTE/Joe should be dropped under P={Feb,Apr}")
	}
	// Sue and other defaults are valid everywhere, so only FTE/Joe drops.
	if got := r.Dropped(); len(got) != 1 || r.Binding.Varying.Path(got[0]) != "FTE/Joe" {
		t.Fatalf("Dropped = %v, want [FTE/Joe]", got)
	}
}

func TestForwardPreservesPrePminValidity(t *testing.T) {
	// An instance valid both before Pmin and at a perspective keeps its
	// original pre-Pmin moments (Def. 4.3's second clause).
	varying := dimension.New("V", false)
	varying.MustAdd("", "A")
	varying.MustAdd("A", "x")
	varying.MustAdd("", "B")
	varying.MustAdd("B", "x")
	param := dimension.New("P", true)
	param.MustAdd("", "t0")
	param.MustAdd("", "t1")
	param.MustAdd("", "t2")
	param.MustAdd("", "t3")
	b := dimension.NewBinding(varying, param)
	b.SetVS(varying.MustLookup("A/x"), 0, 2) // interleaved validity
	b.SetVS(varying.MustLookup("B/x"), 1, 3)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := Apply(Forward, b, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// A/x valid at perspective 2: stretch [2,4); plus original {0}.
	wantSet(t, vs(t, r, "A/x"), 0, 2, 3)
	if !vs(t, r, "B/x").IsEmpty() {
		t.Fatal("B/x not valid at the perspective; must be dropped")
	}
}

func TestExtendedForward(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(ExtendedForward, b, []int{paperdata.Mar})
	if err != nil {
		t.Fatal(err)
	}
	// Contractor/Joe valid at Mar: structure imposed on all of I,
	// minus May where no instance exists.
	wantSet(t, vs(t, r, "Contractor/Joe"),
		paperdata.Jan, paperdata.Feb, paperdata.Mar, paperdata.Apr,
		paperdata.Jun, paperdata.Jul, paperdata.Aug, paperdata.Sep,
		paperdata.Oct, paperdata.Nov, paperdata.Dec)
	if !vs(t, r, "FTE/Joe").IsEmpty() || !vs(t, r, "PTE/Joe").IsEmpty() {
		t.Fatal("other Joe instances should be dropped")
	}
}

func TestBackward(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(Backward, b, []int{paperdata.Apr})
	if err != nil {
		t.Fatal(err)
	}
	// Contractor/Joe valid at Apr: stretch (−∞, Apr] minus May (n/a);
	// post-Pmax original validity {Jun..Dec} retained.
	wantSet(t, vs(t, r, "Contractor/Joe"),
		paperdata.Jan, paperdata.Feb, paperdata.Mar, paperdata.Apr,
		paperdata.Jun, paperdata.Jul, paperdata.Aug, paperdata.Sep,
		paperdata.Oct, paperdata.Nov, paperdata.Dec)
	if !vs(t, r, "FTE/Joe").IsEmpty() {
		t.Fatal("FTE/Joe should be dropped under backward{Apr}")
	}
}

func TestBackwardMultiPerspective(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(Backward, b, []int{paperdata.Feb, paperdata.Jun})
	if err != nil {
		t.Fatal(err)
	}
	// PTE/Joe valid at Feb: covers (−∞, Feb] = {Jan, Feb}.
	wantSet(t, vs(t, r, "PTE/Joe"), paperdata.Jan, paperdata.Feb)
	// Contractor/Joe valid at Jun: covers (Feb, Jun] minus May, plus
	// original {Jul..Dec}.
	wantSet(t, vs(t, r, "Contractor/Joe"),
		paperdata.Mar, paperdata.Apr, paperdata.Jun,
		paperdata.Jul, paperdata.Aug, paperdata.Sep,
		paperdata.Oct, paperdata.Nov, paperdata.Dec)
}

func TestExtendedBackward(t *testing.T) {
	b := joeBinding(t)
	r, err := Apply(ExtendedBackward, b, []int{paperdata.Feb})
	if err != nil {
		t.Fatal(err)
	}
	// PTE/Joe valid at Pmax=Feb: covers everything except May.
	wantSet(t, vs(t, r, "PTE/Joe"),
		paperdata.Jan, paperdata.Feb, paperdata.Mar, paperdata.Apr,
		paperdata.Jun, paperdata.Jul, paperdata.Aug, paperdata.Sep,
		paperdata.Oct, paperdata.Nov, paperdata.Dec)
}

func TestDynamicRequiresOrderedParam(t *testing.T) {
	varying := dimension.New("V", false)
	varying.MustAdd("", "x")
	param := dimension.New("Location", false) // unordered
	param.MustAdd("", "NY")
	param.MustAdd("", "MA")
	b := dimension.NewBinding(varying, param)
	if _, err := Apply(Forward, b, []int{0}); err == nil {
		t.Fatal("forward over unordered parameter should fail")
	}
	// Static over an unordered parameter is fine (paper §3.1: changes can
	// vary by location).
	if _, err := Apply(Static, b, []int{0}); err != nil {
		t.Fatalf("static over unordered parameter: %v", err)
	}
}

func TestNormalizePerspectives(t *testing.T) {
	param := paperdata.Time()
	got, err := NormalizePerspectives(param, []int{5, 1, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("normalized = %v, want [1 3 5]", got)
	}
	if _, err := NormalizePerspectives(param, nil); err == nil {
		t.Fatal("empty perspective set should fail")
	}
	if _, err := NormalizePerspectives(param, []int{12}); err == nil {
		t.Fatal("out-of-range perspective should fail")
	}
}

func TestRanges(t *testing.T) {
	param := paperdata.Time()
	fr, err := ForwardRanges(param, []int{paperdata.Jan, paperdata.Apr, paperdata.Jul, paperdata.Oct})
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{{0, 3}, {3, 6}, {6, 9}, {9, 12}}
	for i := range want {
		if fr[i] != want[i] {
			t.Fatalf("ForwardRanges = %v, want %v", fr, want)
		}
	}
	br, err := BackwardRanges(param, []int{paperdata.Mar, paperdata.Jun})
	if err != nil {
		t.Fatal(err)
	}
	wantB := []Range{{0, 3}, {3, 6}}
	for i := range wantB {
		if br[i] != wantB[i] {
			t.Fatalf("BackwardRanges = %v, want %v", br, wantB)
		}
	}
}

func TestSemanticsAndModeStrings(t *testing.T) {
	if Static.String() != "STATIC" || Forward.String() != "DYNAMIC FORWARD" {
		t.Fatal("semantics String mismatch")
	}
	if Visual.String() != "VISUAL" || NonVisual.String() != "NONVISUAL" {
		t.Fatal("mode String mismatch")
	}
	if Static.Dynamic() || !Backward.Dynamic() {
		t.Fatal("Dynamic() mismatch")
	}
}

// randomBinding builds a varying dimension with one base member split
// into k instances whose validity sets partition a random subset of the
// parameter leaves.
func randomBinding(r *rand.Rand) *dimension.Binding {
	n := 4 + r.Intn(20)
	param := dimension.New("P", true)
	for i := 0; i < n; i++ {
		param.MustAdd("", "t"+string(rune('A'+i%26))+string(rune('0'+i/26)))
	}
	varying := dimension.New("V", false)
	k := 1 + r.Intn(4)
	for i := 0; i < k; i++ {
		parent := "g" + string(rune('0'+i))
		varying.MustAdd("", parent)
		varying.MustAdd(parent, "x")
	}
	b := dimension.NewBinding(varying, param)
	// Assign each moment to at most one instance.
	sets := make([][]int, k)
	for t := 0; t < n; t++ {
		pick := r.Intn(k + 1) // k means "no instance valid" (gap)
		if pick < k {
			sets[pick] = append(sets[pick], t)
		}
	}
	for i := 0; i < k; i++ {
		inst := varying.MustLookup("g" + string(rune('0'+i)) + "/x")
		b.SetVS(inst, sets[i]...)
	}
	return b
}

// Property: under every semantics, output validity sets of instances of
// the same member remain pairwise disjoint (the model invariant), and
// are always subsets of the moments at which some instance exists.
func TestQuickOutputDisjointness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBinding(r)
		if err := b.Validate(); err != nil {
			return false
		}
		n := b.Param.NumLeaves()
		ps := []int{r.Intn(n)}
		if r.Intn(2) == 0 {
			ps = append(ps, r.Intn(n))
		}
		exists := bitset.New(n)
		for _, id := range b.Varying.Instances("x") {
			exists.UnionWith(b.ValiditySet(id))
		}
		for _, sem := range []Semantics{Static, Forward, ExtendedForward, Backward, ExtendedBackward} {
			res, err := Apply(sem, b, ps)
			if err != nil {
				return false
			}
			insts := b.Varying.Instances("x")
			for i := 0; i < len(insts); i++ {
				vi := res.VSOut[insts[i]]
				if !vi.Subtract(exists).IsEmpty() {
					return false // output validity outside existing moments
				}
				for j := i + 1; j < len(insts); j++ {
					if vi.Intersects(res.VSOut[insts[j]]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: static output equals input VS for surviving instances and is
// empty otherwise (Φs is the identity transformation, Def. 4.2).
func TestQuickStaticIsIdentityOnSurvivors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBinding(r)
		n := b.Param.NumLeaves()
		ps := []int{r.Intn(n)}
		res, err := Apply(Static, b, ps)
		if err != nil {
			return false
		}
		for _, id := range b.Varying.Instances("x") {
			in := b.ValiditySet(id)
			out := res.VSOut[id]
			if in.Contains(ps[0]) {
				if !out.Equal(in) {
					return false
				}
			} else if !out.IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: forward stretches of the instances of one member, restricted
// to [Pmin, ∞), tile exactly the moments ≥ Pmin whose most recent
// perspective had a valid instance — and every output moment ≥ Pmin has
// an existing instance.
func TestQuickForwardCoversFromValidPerspectives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBinding(r)
		n := b.Param.NumLeaves()
		ps, err := NormalizePerspectives(b.Param, []int{r.Intn(n), r.Intn(n)})
		if err != nil {
			return false
		}
		res, err := Apply(Forward, b, ps)
		if err != nil {
			return false
		}
		union := bitset.New(n)
		for _, id := range b.Varying.Instances("x") {
			union.UnionWith(res.VSOut[id])
		}
		exists := bitset.New(n)
		for _, id := range b.Varying.Instances("x") {
			exists.UnionWith(b.ValiditySet(id))
		}
		for tm := ps[0]; tm < n; tm++ {
			// most recent perspective at or before tm
			p := ps[0]
			for _, q := range ps {
				if q <= tm {
					p = q
				}
			}
			someValid := false
			for _, id := range b.Varying.Instances("x") {
				if b.ValiditySet(id).Contains(p) {
					someValid = true
				}
			}
			want := someValid && exists.Contains(tm)
			if union.Contains(tm) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkApplyForwardPaperCube(b *testing.B) {
	c := paperdata.Warehouse()
	bind := c.BindingFor("Organization")
	ps := []int{paperdata.Feb, paperdata.Apr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(Forward, bind, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyMembersScoped(b *testing.B) {
	c := paperdata.Warehouse()
	bind := c.BindingFor("Organization")
	ps := []int{paperdata.Feb, paperdata.Apr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyMembers(Forward, bind, ps, []string{"Joe"}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFixedPoint: a member with one instance valid at every leaf — no
// entry in the binding, or a full one — is a fixed point of Φ: under all
// five semantics and every non-empty perspective set of a 6-leaf ordered
// parameter, Φ returns its input. A single instance valid on part of the
// parameter, and a member with two instances, are not fixed points.
func TestFixedPoint(t *testing.T) {
	const n = 6
	param := dimension.New("P", true)
	for i := 0; i < n; i++ {
		param.MustAdd("", "t"+string(rune('0'+i)))
	}
	varying := dimension.New("V", false)
	for _, path := range [][2]string{{"", "g"}, {"g", "open"}, {"g", "full"}, {"g", "hire"}, {"g", "mover"}, {"", "h"}, {"h", "mover"}} {
		varying.MustAdd(path[0], path[1])
	}
	b := dimension.NewBinding(varying, param)
	b.SetVS(varying.MustLookup("g/full"), 0, 1, 2, 3, 4, 5)
	b.SetVS(varying.MustLookup("g/hire"), 2, 3, 4, 5)
	b.SetVS(varying.MustLookup("g/mover"), 0, 1, 2)
	b.SetVS(varying.MustLookup("h/mover"), 3, 4, 5)
	for name, want := range map[string]bool{"open": true, "full": true, "hire": false, "mover": false, "nobody": false} {
		if got := FixedPoint(b, name); got != want {
			t.Fatalf("FixedPoint(%s) = %v, want %v", name, got, want)
		}
	}
	all := bitset.New(n)
	all.AddRange(0, n)
	for _, sem := range []Semantics{Static, Forward, ExtendedForward, Backward, ExtendedBackward} {
		for mask := 1; mask < 1<<n; mask++ {
			var ps []int
			for p := 0; p < n; p++ {
				if mask&(1<<p) != 0 {
					ps = append(ps, p)
				}
			}
			r, err := ApplyMembers(sem, b, ps, []string{"open", "full"})
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"g/open", "g/full"} {
				if got := vs(t, r, path); !got.Equal(all) {
					t.Fatalf("%v %v: Φ(%s) = %v, want its input %v", sem, ps, path, got, all)
				}
			}
		}
	}
	// The hire is not: STATIC {t0} drops it.
	r, err := ApplyMembers(Static, b, []int{0}, []string{"hire"})
	if err != nil {
		t.Fatal(err)
	}
	if got := vs(t, r, "g/hire"); !got.IsEmpty() {
		t.Fatalf("STATIC {t0}: Φ(g/hire) = %v, want it dropped", got)
	}
}
