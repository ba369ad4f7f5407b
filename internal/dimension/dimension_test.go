package dimension

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildTime builds the paper's Time dimension: Qtr1..Qtr4 over Jan..Dec.
func buildTime(t testing.TB) *Dimension {
	t.Helper()
	d := New("Time", true)
	months := [][2]string{
		{"Qtr1", "Jan"}, {"Qtr1", "Feb"}, {"Qtr1", "Mar"},
		{"Qtr2", "Apr"}, {"Qtr2", "May"}, {"Qtr2", "Jun"},
		{"Qtr3", "Jul"}, {"Qtr3", "Aug"}, {"Qtr3", "Sep"},
		{"Qtr4", "Oct"}, {"Qtr4", "Nov"}, {"Qtr4", "Dec"},
	}
	seen := map[string]bool{}
	for _, mq := range months {
		if !seen[mq[0]] {
			d.MustAdd("", mq[0])
			seen[mq[0]] = true
		}
		d.MustAdd(mq[0], mq[1])
	}
	return d
}

// buildOrg builds the paper's Organization dimension of Fig 1 with Joe as
// a varying member (instances under FTE, PTE and Contractor).
func buildOrg(t testing.TB) *Dimension {
	t.Helper()
	d := New("Organization", false)
	d.MustAdd("", "FTE")
	d.MustAdd("FTE", "Joe")
	d.MustAdd("FTE", "Lisa")
	d.MustAdd("FTE", "Sue")
	d.MustAdd("", "PTE")
	d.MustAdd("PTE", "Tom")
	d.MustAdd("PTE", "Dave")
	d.MustAdd("PTE", "Joe")
	d.MustAdd("", "Contractor")
	d.MustAdd("Contractor", "Jane")
	d.MustAdd("Contractor", "Joe")
	return d
}

func TestLeafOrdinalsFollowHierarchyOrder(t *testing.T) {
	d := buildTime(t)
	if d.NumLeaves() != 12 {
		t.Fatalf("NumLeaves = %d, want 12", d.NumLeaves())
	}
	wantOrder := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	for i, name := range wantOrder {
		if got := d.Leaf(i).Name; got != name {
			t.Fatalf("Leaf(%d) = %s, want %s", i, got, name)
		}
	}
}

func TestPathAndLookup(t *testing.T) {
	d := buildOrg(t)
	joeFTE := d.MustLookup("FTE/Joe")
	if got := d.Path(joeFTE); got != "FTE/Joe" {
		t.Fatalf("Path = %q, want FTE/Joe", got)
	}
	if _, err := d.Lookup("Joe"); err == nil {
		t.Fatal("simple-name lookup of varying member should be ambiguous")
	}
	jane, err := d.Lookup("Jane")
	if err != nil {
		t.Fatalf("Lookup(Jane): %v", err)
	}
	if d.Path(jane) != "Contractor/Jane" {
		t.Fatalf("Path(Jane) = %q", d.Path(jane))
	}
	if root, err := d.Lookup("Organization"); err != nil || root != d.Root() {
		t.Fatalf("Lookup(dimension name) = %v, %v", root, err)
	}
	if _, err := d.Lookup("Nobody"); err == nil {
		t.Fatal("Lookup of unknown member should fail")
	}
}

// TestFindFollowsLookup checks that Find resolves exactly what Lookup
// does — a path, an unambiguous simple name, the dimension name — fails
// where Lookup fails with the texts callers print, and allocates
// nothing on a miss.
func TestFindFollowsLookup(t *testing.T) {
	d := buildOrg(t)
	for ref, want := range map[string]string{
		"FTE/Joe":      "",
		"Jane":         "",
		"Organization": "",
		"FTE":          "",
		"Joe":          `dimension Organization: member name "Joe" is ambiguous (3 instances); qualify with a parent path`,
		"Nobody":       `dimension Organization: no member named "Nobody"`,
		"FTE/Jane":     `dimension Organization: no member with path "FTE/Jane"`,
		"":             `dimension Organization: no member named ""`,
	} {
		fid, ok := d.Find(ref)
		lid, err := d.Lookup(ref)
		if ok != (err == nil) || fid != lid {
			t.Fatalf("%q: Find = (%d, %v), Lookup = (%d, %v)", ref, fid, ok, lid, err)
		}
		if err != nil && err.Error() != want || err == nil && want != "" {
			t.Fatalf("%q: Lookup error %v, want %q", ref, err, want)
		}
	}
	for _, ref := range []string{"Joe", "Nobody", "FTE/Jane"} {
		if n := testing.AllocsPerRun(100, func() { d.Find(ref) }); n != 0 {
			t.Fatalf("Find(%q) allocates %.0f times, want 0", ref, n)
		}
	}
}

func TestInstances(t *testing.T) {
	d := buildOrg(t)
	inst := d.Instances("Joe")
	if len(inst) != 3 {
		t.Fatalf("Instances(Joe) = %d, want 3", len(inst))
	}
	paths := []string{}
	for _, id := range inst {
		paths = append(paths, d.Path(id))
	}
	if strings.Join(paths, ",") != "FTE/Joe,PTE/Joe,Contractor/Joe" {
		t.Fatalf("instance paths = %v", paths)
	}
	if vm := d.VaryingMembers(); len(vm) != 1 || vm[0] != "Joe" {
		t.Fatalf("VaryingMembers = %v, want [Joe]", vm)
	}
}

func TestAddErrors(t *testing.T) {
	d := New("D", false)
	if _, err := d.Add("", ""); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := d.Add("", "a/b"); err == nil {
		t.Fatal("name with slash should fail")
	}
	d.MustAdd("", "A")
	if _, err := d.Add("", "A"); err == nil {
		t.Fatal("duplicate path should fail")
	}
	if _, err := d.Add("Missing", "B"); err == nil {
		t.Fatal("missing parent should fail")
	}
}

func TestLeafPromotion(t *testing.T) {
	d := New("D", false)
	d.MustAdd("", "A")
	if d.NumLeaves() != 1 {
		t.Fatalf("NumLeaves = %d, want 1", d.NumLeaves())
	}
	// A was a leaf (and an instance); adding a child promotes it.
	d.MustAdd("A", "B")
	if d.NumLeaves() != 1 {
		t.Fatalf("NumLeaves after promotion = %d, want 1", d.NumLeaves())
	}
	if d.Leaf(0).Name != "B" {
		t.Fatalf("Leaf(0) = %s, want B", d.Leaf(0).Name)
	}
	a := d.MustLookup("A")
	if d.Member(a).LeafOrdinal != -1 {
		t.Fatal("promoted member should have LeafOrdinal -1")
	}
	if got := d.Instances("A"); len(got) != 0 {
		t.Fatalf("Instances(A) after promotion = %v, want empty", got)
	}
}

func TestIsDescendantAndLeafDescendants(t *testing.T) {
	d := buildOrg(t)
	fte := d.MustLookup("FTE")
	joe := d.MustLookup("FTE/Joe")
	if !d.IsDescendant(joe, fte) {
		t.Fatal("FTE/Joe should be a descendant of FTE")
	}
	if !d.IsDescendant(joe, d.Root()) {
		t.Fatal("every member is a descendant of the root")
	}
	if d.IsDescendant(fte, joe) {
		t.Fatal("FTE is not a descendant of FTE/Joe")
	}
	got := d.LeafDescendants(fte)
	if len(got) != 3 {
		t.Fatalf("LeafDescendants(FTE) = %v, want 3 leaves", got)
	}
}

func TestHeightLevelsGenerations(t *testing.T) {
	d := buildTime(t)
	if h := d.Height(d.Root()); h != 2 {
		t.Fatalf("Height(root) = %d, want 2", h)
	}
	if got := d.LevelMembers(0); len(got) != 12 {
		t.Fatalf("LevelMembers(0) = %d, want 12", len(got))
	}
	if got := d.LevelMembers(1); len(got) != 4 {
		t.Fatalf("LevelMembers(1) = %d, want 4 quarters", len(got))
	}
	if got := d.GenerationMembers(1); len(got) != 4 {
		t.Fatalf("GenerationMembers(1) = %d, want 4 quarters", len(got))
	}
	if got := d.GenerationMembers(2); len(got) != 12 {
		t.Fatalf("GenerationMembers(2) = %d, want 12 months", len(got))
	}
}

// TestExtendIsIsolated: an extension takes hypothetical members at the
// end of the ordinal space without touching its base, two extensions of
// one base never see each other's members (their shared slices are
// capped), an extension refuses Add, which would renumber the
// ordinals it shares, and a plain dimension refuses AddHypothetical.
func TestExtendIsIsolated(t *testing.T) {
	d := buildOrg(t)
	fte := d.MustLookup("FTE")
	before := fingerprint(d)
	a, b := d.Extend(), d.Extend()
	ga := a.mustAddHypothetical(t, "FTE", "NewGuy")
	gb := b.mustAddHypothetical(t, "FTE", "OtherGuy")
	jb := b.mustAddHypothetical(t, "PTE", "Lisa")
	if got := fingerprint(d); got != before {
		t.Fatalf("extensions changed their base:\n%s\nwant\n%s", got, before)
	}
	if _, err := d.Lookup("FTE/NewGuy"); err == nil {
		t.Fatal("an extension's member leaked into its base")
	}
	if ga != gb || a.Path(ga) != "FTE/NewGuy" || b.Path(gb) != "FTE/OtherGuy" {
		t.Fatalf("two extensions' first members: %q (%d), %q (%d)", a.Path(ga), ga, b.Path(gb), gb)
	}
	if _, err := a.Lookup("FTE/OtherGuy"); err == nil {
		t.Fatal("one extension sees another's member")
	}
	if got, want := len(a.Member(fte).Children), len(d.Member(fte).Children)+1; got != want {
		t.Fatalf("extension a: FTE has %d children, want %d", got, want)
	}
	if got := b.Member(fte).Children; got[len(got)-1] != gb {
		t.Fatalf("extension b: FTE's children %v do not end with its member %d", got, gb)
	}
	// New leaves take the ordinals past the base extent; base ordinals
	// stay.
	if o := b.Member(jb).LeafOrdinal; o != d.NumLeaves()+1 || b.Leaf(o).ID != jb || b.NumLeaves() != d.NumLeaves()+2 {
		t.Fatalf("PTE/Lisa: ordinal %d of %d leaves", o, b.NumLeaves())
	}
	for o, id := range d.Leaves() {
		if b.Member(id).LeafOrdinal != o || b.Leaves()[o] != id {
			t.Fatalf("base leaf %q moved in the extension", d.Path(id))
		}
	}
	if got := b.Instances("Lisa"); len(got) != 2 || got[1] != jb || len(d.Instances("Lisa")) != 1 {
		t.Fatalf("Instances(Lisa): extension %v, base %v", got, d.Instances("Lisa"))
	}
	if _, err := b.Lookup("Lisa"); err == nil || !strings.Contains(err.Error(), "2 instances") {
		t.Fatalf("Lookup(Lisa) on the extension: %v", err)
	}
	if vm := b.VaryingMembers(); fmt.Sprint(vm) != "[Joe Lisa]" {
		t.Fatalf("VaryingMembers on the extension = %v", vm)
	}
	// A name whose base instance list has spare capacity gains an
	// instance in both extensions: neither sees the other's.
	ja, jb2 := a.mustAddHypothetical(t, "", "Joe"), b.mustAddHypothetical(t, "", "Joe")
	if ia, ib := a.Instances("Joe"), b.Instances("Joe"); len(ia) != 4 || ia[3] != ja || ib[3] != jb2 || len(d.Instances("Joe")) != 3 {
		t.Fatalf("Instances(Joe): extension a %v (added %d), b %v (added %d), base %v", ia, ja, ib, jb2, d.Instances("Joe"))
	}
	// An extension of an extension shares its additions and adds its own.
	c := b.Extend()
	c.mustAddHypothetical(t, "PTE", "Ann")
	if _, err := b.Lookup("PTE/Ann"); err == nil || c.MustLookup("FTE/OtherGuy") != gb || c.NumLeaves() != b.NumLeaves()+1 {
		t.Fatal("an extension of an extension does not layer on it")
	}
	if _, err := a.Add("FTE", "Renumbered"); err == nil {
		t.Fatal("Add on an extension should fail")
	}
	if _, err := d.AddHypothetical("FTE", "InPlace"); err == nil {
		t.Fatal("AddHypothetical on a dimension that is not an extension should fail")
	}
	if got := fingerprint(d); got != before {
		t.Fatal("Add on an extension, or AddHypothetical on its base, changed the base")
	}
}

func (d *Dimension) mustAddHypothetical(t *testing.T, parent, name string) MemberID {
	t.Helper()
	id, err := d.AddHypothetical(parent, name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// fingerprint renders every member of d — path, ordinal, children — and
// every instance list, for before/after comparisons.
func fingerprint(d *Dimension) string {
	var b strings.Builder
	for id := MemberID(0); int(id) < d.NumMembers(); id++ {
		m := d.Member(id)
		fmt.Fprintf(&b, "%d %q %d %v %v\n", id, d.Path(id), m.LeafOrdinal, m.Children, d.Instances(m.Name))
	}
	fmt.Fprintln(&b, d.Leaves(), d.VaryingMembers())
	return b.String()
}

func TestBindingValidityAndInstanceAt(t *testing.T) {
	org := buildOrg(t)
	tim := buildTime(t)
	b := NewBinding(org, tim)
	// Paper §2: VS(FTE/Joe) = {Jan}, VS(PTE/Joe) = {Feb},
	// VS(Contractor/Joe) = Mar onwards except May.
	b.SetVS(org.MustLookup("FTE/Joe"), 0)
	b.SetVS(org.MustLookup("PTE/Joe"), 1)
	b.SetVS(org.MustLookup("Contractor/Joe"), 2, 3, 5, 6, 7, 8, 9, 10, 11)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := b.InstanceAt("Joe", 0); org.Path(got) != "FTE/Joe" {
		t.Fatalf("InstanceAt(Joe, Jan) = %s", org.Path(got))
	}
	if got := b.InstanceAt("Joe", 4); got != None {
		t.Fatalf("InstanceAt(Joe, May) = %v, want None (vacation)", got)
	}
	if got := b.InstanceAt("Joe", 7); org.Path(got) != "Contractor/Joe" {
		t.Fatalf("InstanceAt(Joe, Aug) = %s", org.Path(got))
	}
	// Non-varying member is valid everywhere by default.
	jane := org.MustLookup("Jane")
	if vs := b.ValiditySet(jane); vs.Len() != 12 {
		t.Fatalf("default VS len = %d, want 12", vs.Len())
	}
}

func TestBindingValidateOverlap(t *testing.T) {
	org := buildOrg(t)
	tim := buildTime(t)
	b := NewBinding(org, tim)
	b.SetVS(org.MustLookup("FTE/Joe"), 0, 1)
	b.SetVS(org.MustLookup("PTE/Joe"), 1, 2) // overlaps at Feb
	b.SetVS(org.MustLookup("Contractor/Joe"), 3)
	if err := b.Validate(); err == nil {
		t.Fatal("overlapping validity sets should fail validation")
	}
}

func TestBindingClone(t *testing.T) {
	org := buildOrg(t)
	tim := buildTime(t)
	b := NewBinding(org, tim)
	b.SetVS(org.MustLookup("FTE/Joe"), 0)
	org2, tim2 := org.Extend(), tim.Extend()
	c := b.Clone(org2, tim2)
	c.vs[org2.MustLookup("FTE/Joe")].Add(5)
	if b.ValiditySet(org.MustLookup("FTE/Joe")).Contains(5) {
		t.Fatal("binding clone mutation leaked")
	}
}

// Property: leaf ordinals are always a dense permutation 0..NumLeaves-1
// and every non-leaf member has ordinal -1, under random hierarchy
// construction.
func TestQuickLeafOrdinalsDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New("R", false)
		paths := []string{""}
		for i := 0; i < 40; i++ {
			parent := paths[r.Intn(len(paths))]
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if _, err := d.Add(parent, name); err != nil {
				continue
			}
			p := name
			if parent != "" {
				p = parent + "/" + name
			}
			paths = append(paths, p)
		}
		seen := make([]bool, d.NumLeaves())
		for id := MemberID(0); int(id) < d.NumMembers(); id++ {
			m := d.Member(id)
			if m.IsLeaf() && m.Parent != None {
				if m.LeafOrdinal < 0 || m.LeafOrdinal >= d.NumLeaves() || seen[m.LeafOrdinal] {
					return false
				}
				seen[m.LeafOrdinal] = true
			} else if m.LeafOrdinal != -1 {
				return false
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Path and byPath lookup are mutually inverse.
func TestQuickPathRoundTrip(t *testing.T) {
	d := buildOrg(t)
	for id := MemberID(1); int(id) < d.NumMembers(); id++ {
		p := d.Path(id)
		got, err := d.Lookup(p)
		if err != nil || got != id {
			t.Fatalf("Lookup(Path(%d)=%q) = %v, %v", id, p, got, err)
		}
	}
}
