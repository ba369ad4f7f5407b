package mdx

import (
	"fmt"
	"strings"
	"testing"

	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/workload"
)

// The reference chain below is member resolution as it was before the
// probes stopped formatting errors: every probe a Lookup that builds its
// error, a one-part path looked up twice. It is written against the
// dimension's public API only, so it shares no code with what it checks.

func refLookup(d *dimension.Dimension, ref string) (dimension.MemberID, error) {
	if ref == d.Name() {
		return 0, nil
	}
	for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
		if d.Path(id) == ref {
			return id, nil
		}
	}
	if !strings.Contains(ref, "/") {
		var found []dimension.MemberID
		for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
			if d.Member(id).Name == ref {
				found = append(found, id)
			}
		}
		switch len(found) {
		case 1:
			return found[0], nil
		case 0:
			return dimension.None, fmt.Errorf("dimension %s: no member named %q", d.Name(), ref)
		default:
			return dimension.None, fmt.Errorf("dimension %s: member name %q is ambiguous (%d instances); qualify with a parent path", d.Name(), ref, len(found))
		}
	}
	return dimension.None, fmt.Errorf("dimension %s: no member with path %q", d.Name(), ref)
}

func refLookupParts(d *dimension.Dimension, parts []string) (dimension.MemberID, error) {
	if id, err := refLookup(d, strings.Join(parts, "/")); err == nil {
		return id, nil
	}
	if len(parts) == 1 {
		return refLookup(d, parts[0])
	}
	id, err := refLookup(d, parts[0])
	if err != nil {
		return dimension.None, err
	}
	for _, p := range parts[1:] {
		next := dimension.None
		for _, ch := range d.Member(id).Children {
			if d.Member(ch).Name == p {
				next = ch
				break
			}
		}
		if next == dimension.None {
			return dimension.None, fmt.Errorf("dimension %s: %q has no child %q", d.Name(), d.Path(id), p)
		}
		id = next
	}
	return id, nil
}

func refResolveMember(c *cube.Cube, m *MemberExpr) (int, dimension.MemberID, error) {
	if len(m.Parts) == 0 {
		return 0, 0, fmt.Errorf("mdx: empty member reference")
	}
	if di := c.DimIndex(m.Parts[0]); di >= 0 {
		rest := m.Parts[1:]
		if len(rest) == 0 {
			return di, c.Dim(di).Root(), nil
		}
		id, err := refLookupParts(c.Dim(di), rest)
		if err != nil {
			return 0, 0, err
		}
		return di, id, nil
	}
	foundDim, foundID := -1, dimension.None
	for di := 0; di < c.NumDims(); di++ {
		id, err := refLookupParts(c.Dim(di), m.Parts)
		if err != nil {
			continue
		}
		if foundDim >= 0 {
			return 0, 0, fmt.Errorf("mdx: member %s is ambiguous between dimensions %s and %s",
				m, c.Dim(foundDim).Name(), c.Dim(di).Name())
		}
		foundDim, foundID = di, id
	}
	if foundDim < 0 {
		return 0, 0, fmt.Errorf("mdx: no dimension has member %s", m)
	}
	return foundDim, foundID, nil
}

// spellings lists the ways a query can name member id of dimension dim:
// qualified by dimension and parts, by dimension and slash path, by
// dimension and simple name, unqualified by parts, by slash path and by
// simple name (ambiguous for a varying member's instance), and bogus
// variants of each.
func spellings(dim *dimension.Dimension, id dimension.MemberID) [][]string {
	path := dim.Path(id)
	if path == "" {
		return [][]string{{dim.Name()}, {dim.Name(), "Bogus"}, {"Bogus", dim.Name()}}
	}
	parts := strings.Split(path, "/")
	name := parts[len(parts)-1]
	out := [][]string{
		append([]string{dim.Name()}, parts...),
		{dim.Name(), path},
		{dim.Name(), name},
		parts,
		{path},
		{name},
		{dim.Name(), name, "Bogus"},
		append(append([]string(nil), parts...), "Bogus"),
		{path + "/Bogus"},
		{"Bogus", name},
		{name + "Bogus"},
	}
	if len(parts) > 1 {
		// A head that skips levels, and a broken middle.
		out = append(out, []string{parts[0], name}, []string{dim.Name(), parts[0], "Bogus", name})
	}
	return out
}

func resolutionCubes(t *testing.T) map[string]*cube.Cube {
	t.Helper()
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*cube.Cube{"paper": paperdata.Warehouse(), "workforce": w.Cube}
}

// TestResolveMemberMatchesReference resolves every member of the paper
// warehouse and of the tiny workforce cube in every spelling, and checks
// that resolution gives the reference chain's (dimension, member) or its
// identical error text — and that a lone Find agrees with Lookup.
func TestResolveMemberMatchesReference(t *testing.T) {
	ev := &Evaluator{}
	for name, c := range resolutionCubes(t) {
		checked, failed := 0, 0
		for di := 0; di < c.NumDims(); di++ {
			dim := c.Dim(di)
			for id := dimension.MemberID(0); int(id) < dim.NumMembers(); id++ {
				for _, parts := range spellings(dim, id) {
					m := &MemberExpr{Parts: parts}
					gd, gid, gerr := ev.resolveMember(c, m)
					wd, wid, werr := refResolveMember(c, m)
					checked++
					switch {
					case (gerr == nil) != (werr == nil):
						t.Fatalf("%s %v: got (%d,%d,%v), reference (%d,%d,%v)", name, m, gd, gid, gerr, wd, wid, werr)
					case gerr != nil:
						failed++
						if gerr.Error() != werr.Error() {
							t.Fatalf("%s %v: error %q, reference %q", name, m, gerr, werr)
						}
					case gd != wd || gid != wid:
						t.Fatalf("%s %v: (%d,%d), reference (%d,%d)", name, m, gd, gid, wd, wid)
					}
					for _, ref := range parts {
						fid, ok := dim.Find(ref)
						lid, err := dim.Lookup(ref)
						rid, rerr := refLookup(dim, ref)
						if ok != (err == nil) || fid != lid || lid != rid || (err != nil && err.Error() != rerr.Error()) {
							t.Fatalf("%s %s %q: Find (%d,%v), Lookup (%d,%v), reference (%d,%v)", name, dim.Name(), ref, fid, ok, lid, err, rid, rerr)
						}
					}
				}
			}
		}
		if failed == 0 || failed == checked {
			t.Fatalf("%s: %d of %d spellings failed; the corpus must hold both", name, failed, checked)
		}
	}
}

// TestResolveMemberUnqualifiedPathAllocs pins that resolving an
// unqualified instance path, probed in all seven workforce dimensions,
// formats no error for the six that miss: it allocates nothing.
func TestResolveMemberUnqualifiedPathAllocs(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	c := w.Cube
	dept := c.DimByName(workload.DimDepartment)
	m := &MemberExpr{Parts: []string{dept.Path(dept.Leaf(dept.NumLeaves() / 2).ID)}}
	ev := NewEvaluator(c)
	if _, _, err := ev.resolveMember(c, m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ev.resolveMember(c, m) }); n != 0 {
		t.Fatalf("resolving %v allocates %.0f times per run, want 0", m, n)
	}
}

// TestParamMemberQualification checks that a perspective point and a
// change moment resolve on their whole path in the parameter dimension:
// a qualification that names the wrong quarter, or no member at all, is
// an error, not January.
func TestParamMemberQualification(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(w.Cube)
	const tail = ` SELECT {[Period].Levels(0).Members} ON COLUMNS, {[Department].Children} ON ROWS FROM [App].[Db]
WHERE ([Account].[Acct000], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`
	perspective := func(pt string) string {
		return `WITH PERSPECTIVE {(` + pt + `), (Jul)} FOR Department DYNAMIC FORWARD NONVISUAL` + tail
	}
	dept := w.Cube.DimByName(workload.DimDepartment)
	emp := dept.Instances(w.Changing[0])[0]
	from, to := dept.Path(dept.Member(emp).Parent), "Dept00"
	if from == to {
		to = "Dept01"
	}
	changes := func(at string) string {
		return `WITH CHANGES {([` + dept.Path(emp) + `], [` + from + `], [` + to + `], ` + at + `)} NONVISUAL` + tail
	}
	for _, tc := range []struct {
		name, src, want string // want: "" the January answer, else an error substring
	}{
		{"point simple", perspective(`[Jan]`), ""},
		{"point quarter", perspective(`[Q1].[Jan]`), ""},
		{"point dimension", perspective(`[Period].[Jan]`), ""},
		{"point dimension quarter", perspective(`[Period].[Q1].[Jan]`), ""},
		{"point slash path", perspective(`[Q1/Jan]`), ""},
		{"point wrong quarter", perspective(`[Q2].[Jan]`), `"Q2" has no child "Jan"`},
		{"point dimension wrong quarter", perspective(`[Period].[Q3].[Jan]`), `"Q3" has no child "Jan"`},
		{"point bogus qualifier", perspective(`[Bogus].[Jan]`), `no member named "Bogus"`},
		{"moment simple", changes(`[Feb]`), ""},
		{"moment quarter", changes(`[Q1].[Feb]`), ""},
		{"moment dimension quarter", changes(`[Period].[Q1].[Feb]`), ""},
		{"moment wrong quarter", changes(`[Q2].[Feb]`), `"Q2" has no child "Feb"`},
		{"moment bogus qualifier", changes(`[Bogus].[Feb]`), `no member named "Bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ev.Run(tc.src)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want one containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ref := perspective(`[Jan]`)
			if strings.HasPrefix(tc.name, "moment") {
				ref = changes(`[Feb]`)
			}
			want, err := ev.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			sameGrid(t, tc.name, got, want)
		})
	}
}
