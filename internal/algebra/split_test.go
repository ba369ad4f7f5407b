package algebra

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"whatifolap/internal/bitset"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/workload"
)

// referencePlanSplit is PlanSplit as it was before splits extended the
// varying dimension: it deep-copies the dimension and the binding,
// creates new instances with Add (which renumbers every leaf in
// hierarchy order) and validates the whole binding. It is written
// against the dimension package's public API only, and is the reference
// TestPlanSplitMatchesReference holds PlanSplit to.
func referencePlanSplit(b *dimension.Binding, changes []Change) (*SplitPlan, error) {
	if !b.Param.Ordered() {
		return nil, fmt.Errorf("algebra: split: parameter dimension %s must be ordered", b.Param.Name())
	}
	nT := b.Param.NumLeaves()
	nd := copyDimension(b.Varying)
	nb := b.Clone(nd, b.Param)
	redirect := make(map[dimension.MemberID][]dimension.MemberID)
	redirectFor := func(id dimension.MemberID) []dimension.MemberID {
		if r, ok := redirect[id]; ok {
			return r
		}
		r := make([]dimension.MemberID, nT)
		for t := range r {
			r[t] = id
		}
		redirect[id] = r
		return r
	}
	for _, ch := range changes {
		if ch.T < 0 || ch.T >= nT {
			return nil, fmt.Errorf("algebra: split: change moment %d outside parameter dimension %s", ch.T, b.Param.Name())
		}
		oldID, err := nd.Lookup(ch.OldParent + "/" + ch.Member)
		if err != nil {
			return nil, fmt.Errorf("algebra: split: %w", err)
		}
		np, err := nd.Lookup(ch.NewParent)
		if err != nil {
			return nil, fmt.Errorf("algebra: split: new parent: %w", err)
		}
		if nd.Member(np).LeafOrdinal >= 0 {
			return nil, fmt.Errorf("algebra: split: new parent %q must be a non-leaf member", ch.NewParent)
		}
		newID, err := nd.Lookup(nd.Path(np) + "/" + ch.Member)
		if err != nil {
			newID, err = nd.Add(nd.Path(np), ch.Member)
			if err != nil {
				return nil, fmt.Errorf("algebra: split: %w", err)
			}
			nb.Put(newID, bitset.New(nT))
		}
		oldVS := nb.ValiditySet(oldID).Clone()
		newVS := nb.ValiditySet(newID).Clone()
		moved := bitset.New(nT)
		moved.AddRange(ch.T, nT)
		moved.IntersectWith(oldVS)
		oldVS.SubtractWith(moved)
		newVS.UnionWith(moved)
		nb.Put(oldID, oldVS)
		nb.Put(newID, newVS)
		r := redirectFor(oldID)
		moved.ForEach(func(t int) { r[t] = newID })
		for src, row := range redirect {
			if src == oldID {
				continue
			}
			for t, dst := range row {
				if dst == oldID && moved.Contains(t) {
					row[t] = newID
				}
			}
		}
	}
	if err := nb.Validate(); err != nil {
		return nil, fmt.Errorf("algebra: split produced invalid binding: %w", err)
	}
	return &SplitPlan{Dim: nd, Binding: nb, Redirect: redirect}, nil
}

// copyDimension rebuilds d member by member in ID order, which for a
// dimension built with Add gives the same IDs, children and ordinals.
func copyDimension(d *dimension.Dimension) *dimension.Dimension {
	c := dimension.New(d.Name(), d.Ordered())
	for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
		c.MustAdd(d.Path(d.Member(id).Parent), d.Member(id).Name)
	}
	return c
}

// describeDim renders a dimension by path: every member with its
// children in order, and every name's instances in order. Ordinals are
// left out — the reference renumbers them, PlanSplit does not.
func describeDim(d *dimension.Dimension) string {
	var b strings.Builder
	var names []string
	for id := dimension.MemberID(0); int(id) < d.NumMembers(); id++ {
		m := d.Member(id)
		fmt.Fprintf(&b, "%d %q:", id, d.Path(id))
		for _, c := range m.Children {
			fmt.Fprintf(&b, " %q", d.Path(c))
		}
		b.WriteByte('\n')
		if id != d.Root() {
			names = append(names, m.Name)
		}
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		fmt.Fprintf(&b, "instances %s:", name)
		for _, id := range d.Instances(name) {
			fmt.Fprintf(&b, " %q", d.Path(id))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// describePlan renders a plan by path: its dimension, every leaf's
// validity set and every redirect row.
func describePlan(p *SplitPlan) string {
	d := p.Dim
	var b strings.Builder
	b.WriteString(describeDim(d))
	for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
		if d.Member(id).IsLeaf() {
			fmt.Fprintf(&b, "VS %q %v\n", d.Path(id), p.Binding.ValiditySet(id))
		}
	}
	var rows []string
	for src, row := range p.Redirect {
		dst := make([]string, len(row))
		for t, id := range row {
			dst[t] = d.Path(id)
		}
		rows = append(rows, fmt.Sprintf("redirect %q %q", d.Path(src), dst))
	}
	slices.Sort(rows)
	b.WriteString(strings.Join(rows, "\n"))
	return b.String()
}

// describeBase renders a published binding completely — ordinals
// included — to check that planning a split leaves it as it was.
func describeBase(b *dimension.Binding) string {
	d := b.Varying
	var s strings.Builder
	s.WriteString(describeDim(d))
	for id := dimension.MemberID(0); int(id) < d.NumMembers(); id++ {
		fmt.Fprintf(&s, "%d ordinal %d\n", id, d.Member(id).LeafOrdinal)
	}
	fmt.Fprintln(&s, d.Leaves(), d.VaryingMembers())
	for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
		if vs, ok := b.Explicit(id); ok {
			fmt.Fprintf(&s, "VS %d %v\n", id, vs)
		}
	}
	return s.String()
}

// splitFixture is a published binding and the names of its first and
// last top-level members and of two stable members under neither.
type splitFixture struct {
	name        string
	b           *dimension.Binding
	first, last string
}

func splitFixtures(t testing.TB) []splitFixture {
	t.Helper()
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	var out []splitFixture
	for _, f := range []struct {
		name string
		b    *dimension.Binding
	}{
		{"paper", paperdata.Warehouse().BindingFor("Organization")},
		{"workforce", w.Cube.BindingFor(workload.DimDepartment)},
	} {
		top := f.b.Varying.Member(f.b.Varying.Root()).Children
		out = append(out, splitFixture{name: f.name, b: f.b,
			first: f.b.Varying.Path(top[0]), last: f.b.Varying.Path(top[len(top)-1])})
	}
	return out
}

// stableLeaves returns up to n leaves of d with one instance each whose
// parent is none of the excluded paths, as (parent path, name).
func stableLeaves(d *dimension.Dimension, n int, exclude ...string) [][2]string {
	var out [][2]string
	for _, id := range d.Leaves() {
		m := d.Member(id)
		parent := d.Path(m.Parent)
		if len(d.Instances(m.Name)) == 1 && !slices.Contains(exclude, parent) {
			out = append(out, [2]string{parent, m.Name})
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// TestPlanSplitMatchesReference holds PlanSplit to the clone-based
// reference: the same members by path in the same Children order, the
// same instances per name, equal validity sets and redirects, and the
// same error text — while base ordinals stay put, new instances take the
// ordinals past the base extent, and the published binding is left as
// it was.
func TestPlanSplitMatchesReference(t *testing.T) {
	for _, f := range splitFixtures(t) {
		d := f.b.Varying
		if got, want := describeBase(dimension.NewBinding(copyDimension(d), f.b.Param)), describeBase(dimension.NewBinding(d, f.b.Param)); got != want {
			t.Fatalf("%s: copyDimension does not reproduce the dimension", f.name)
		}
		s := stableLeaves(d, 2, f.first, f.last)
		a, b := s[0], s[1]
		joe := d.Member(d.Instances(d.VaryingMembers()[0])[0])
		varying, varyingFrom := joe.Name, d.Path(joe.Parent)
		cases := []struct {
			name    string
			changes []Change
		}{
			{"single", []Change{{Member: a[1], OldParent: a[0], NewParent: f.last, T: 3}}},
			{"new parent first", []Change{{Member: a[1], OldParent: a[0], NewParent: f.first, T: 2}}},
			{"new parent last", []Change{{Member: b[1], OldParent: b[0], NewParent: f.last, T: 5}}},
			{"chained", []Change{
				{Member: a[1], OldParent: a[0], NewParent: f.first, T: 2},
				{Member: a[1], OldParent: f.first, NewParent: f.last, T: 6},
			}},
			{"several members", []Change{
				{Member: a[1], OldParent: a[0], NewParent: f.last, T: 1},
				{Member: b[1], OldParent: b[0], NewParent: f.first, T: 4},
				{Member: varying, OldParent: varyingFrom, NewParent: f.last, T: 0},
			}},
			{"move back", []Change{
				{Member: a[1], OldParent: a[0], NewParent: f.last, T: 2},
				{Member: a[1], OldParent: f.last, NewParent: a[0], T: 7},
			}},
			{"into an existing instance", []Change{{Member: varying, OldParent: varyingFrom,
				NewParent: d.Path(d.Member(d.Instances(varying)[1]).Parent), T: 0}}},
			{"same parent", []Change{{Member: a[1], OldParent: a[0], NewParent: a[0], T: 3}}},
			{"err moment", []Change{{Member: a[1], OldParent: a[0], NewParent: f.last, T: 99}}},
			{"err negative moment", []Change{{Member: a[1], OldParent: a[0], NewParent: f.last, T: -1}}},
			{"err instance", []Change{{Member: a[1], OldParent: f.last, NewParent: f.first, T: 1}}},
			{"err new parent", []Change{{Member: a[1], OldParent: a[0], NewParent: "Nowhere", T: 1}}},
			{"err leaf new parent", []Change{{Member: a[1], OldParent: a[0], NewParent: b[0] + "/" + b[1], T: 1}}},
			{"err after a good row", []Change{
				{Member: a[1], OldParent: a[0], NewParent: f.last, T: 2},
				{Member: b[1], OldParent: f.first, NewParent: f.last, T: 3},
			}},
			{"err chained before created", []Change{
				{Member: a[1], OldParent: f.last, NewParent: f.first, T: 6},
				{Member: a[1], OldParent: a[0], NewParent: f.last, T: 2},
			}},
		}
		before := describeBase(f.b)
		for _, tc := range cases {
			label := f.name + "/" + tc.name
			want, wantErr := referencePlanSplit(f.b, tc.changes)
			got, err := PlanSplit(f.b, tc.changes)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, want %v", label, err, wantErr)
			}
			if after := describeBase(f.b); after != before {
				t.Fatalf("%s: planning the split changed the published binding", label)
			}
			if isErr := strings.HasPrefix(tc.name, "err "); isErr != (wantErr != nil) {
				t.Fatalf("%s: reference error %v", label, wantErr)
			} else if isErr {
				continue
			}
			if g, w := describePlan(got), describePlan(want); g != w {
				t.Fatalf("%s: plan\n%s\nwant\n%s", label, g, w)
			}
			// Base ordinals never shift; new instances follow the base
			// extent in creation order.
			for o, id := range d.Leaves() {
				if got.Dim.Member(id).LeafOrdinal != o {
					t.Fatalf("%s: base leaf %q moved to ordinal %d", label, d.Path(id), got.Dim.Member(id).LeafOrdinal)
				}
			}
			for id := dimension.MemberID(d.NumMembers()); int(id) < got.Dim.NumMembers(); id++ {
				if o := got.Dim.Member(id).LeafOrdinal; o != d.NumLeaves()+int(id)-d.NumMembers() || got.Dim.Leaf(o).ID != id {
					t.Fatalf("%s: new instance %q has ordinal %d", label, got.Dim.Path(id), o)
				}
			}
			// Unchanged validity sets are shared, not copied.
			for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
				vs, _ := f.b.Explicit(id)
				if split, _ := got.Binding.Explicit(id); split != vs && !changed(tc.changes, d, id) {
					t.Fatalf("%s: unchanged validity set of %q was copied", label, d.Path(id))
				}
			}
		}
	}
	// A parameter dimension that is not ordered.
	unordered := dimension.NewBinding(paperdata.Organization(), paperdata.Location())
	lisa := []Change{{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: 1}}
	_, wantErr := referencePlanSplit(unordered, lisa)
	if _, err := PlanSplit(unordered, lisa); err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("unordered parameter: error %v, want %v", err, wantErr)
	}
}

// changed reports whether id is an instance of a member the relation
// names.
func changed(changes []Change, d *dimension.Dimension, id dimension.MemberID) bool {
	return slices.ContainsFunc(changes, func(c Change) bool { return c.Member == d.Member(id).Name })
}

// TestPlanSplitConcurrent splits one published binding into the same
// department from eight goroutines while others read the base: the
// extensions share the base's tables, so a write through one would race
// (under -race) or show in another's members.
func TestPlanSplitConcurrent(t *testing.T) {
	f := splitFixtures(t)[1]
	d := f.b.Varying
	before := describeBase(f.b)
	movers := stableLeaves(d, 8, f.last)
	dept := d.MustLookup(f.last)
	// A varying member with no instance under the department: every
	// goroutine adds one to its instance list too.
	var shared Change
	for _, name := range d.VaryingMembers() {
		if _, err := d.Lookup(f.last + "/" + name); err != nil {
			shared = Change{Member: name, OldParent: d.Path(d.Member(d.Instances(name)[0]).Parent), NewParent: f.last}
			break
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(mv [2]string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sh := shared
				sh.T = 1 + i%11
				p, err := PlanSplit(f.b, []Change{{Member: mv[1], OldParent: mv[0], NewParent: f.last, T: 1 + i%11}, sh})
				if err != nil {
					errs <- err
					return
				}
				kids := p.Dim.Member(dept).Children
				if id := kids[len(kids)-2]; p.Dim.Path(id) != f.last+"/"+mv[1] || p.Dim.Member(id).LeafOrdinal != d.NumLeaves() ||
					len(kids) != len(d.Member(dept).Children)+2 || p.Dim.NumMembers() != d.NumMembers()+2 {
					errs <- fmt.Errorf("split of %v: %s's child is %q at ordinal %d", mv, f.last, p.Dim.Path(id), p.Dim.Member(id).LeafOrdinal)
					return
				}
				if insts := p.Dim.Instances(sh.Member); insts[len(insts)-1] != kids[len(kids)-1] || len(insts) != len(d.Instances(sh.Member))+1 {
					errs <- fmt.Errorf("split of %v: instances of %s are %v", mv, sh.Member, insts)
					return
				}
			}
		}(movers[g])
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := d.Lookup(f.last + "/" + movers[i%8][1]); err == nil {
					errs <- fmt.Errorf("a split's instance %s/%s is visible in the base", f.last, movers[i%8][1])
					return
				}
				if n := len(d.Instances(movers[i%8][1])); n != 1 {
					errs <- fmt.Errorf("base: %d instances of %s", n, movers[i%8][1])
					return
				}
				if n := len(d.LeafDescendants(dept)); n != len(d.Member(dept).Children) {
					errs <- fmt.Errorf("base: %d leaves under %s", n, f.last)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if describeBase(f.b) != before {
		t.Fatal("concurrent splits changed the published binding")
	}
}

// oneMove is a one-tuple relation on a workforce binding: a stable
// employee moves to the last department from April.
func oneMove(b *dimension.Binding) []Change {
	top := b.Varying.Member(b.Varying.Root()).Children
	last := b.Varying.Path(top[len(top)-1])
	mv := stableLeaves(b.Varying, 1, last)[0]
	return []Change{{Member: mv[1], OldParent: mv[0], NewParent: last, T: 3}}
}

// TestPlanSplitAllocsFollowChanges pins a one-tuple split's allocations
// to the relation, not the dimension: ConfigDefault's Department has
// about 70 times the members of ConfigTiny's.
func TestPlanSplitAllocsFollowChanges(t *testing.T) {
	var allocs []float64
	for _, cfg := range []workload.WorkforceConfig{workload.ConfigTiny(), workload.ConfigDefault()} {
		w, err := workload.NewWorkforce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := w.Cube.BindingFor(workload.DimDepartment)
		changes := oneMove(b)
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := PlanSplit(b, changes); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if math.Abs(allocs[1]-allocs[0]) > 8 {
		t.Fatalf("a one-tuple split allocates %.0f times on ConfigTiny and %.0f on ConfigDefault, want within 8", allocs[0], allocs[1])
	}
}

// BenchmarkPlanSplit plans a one-tuple positive scenario on the tiny and
// the default workforce cube: its cost should follow the relation, not
// the Department dimension.
func BenchmarkPlanSplit(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  workload.WorkforceConfig
	}{{"tiny", workload.ConfigTiny()}, {"default", workload.ConfigDefault()}} {
		w, err := workload.NewWorkforce(tc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		bind := w.Cube.BindingFor(workload.DimDepartment)
		changes := oneMove(bind)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanSplit(bind, changes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
