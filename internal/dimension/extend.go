package dimension

import "maps"

// extension is what an extended dimension adds to the tables it shares
// with the dimension it extends: everything here is the extension's
// own, and nothing it shares is ever written. Slices it inherits from
// an earlier extension are capped, so that two extensions of one
// dimension never append into the same backing array.
type extension struct {
	// base is the dimension whose tables the extension shares — never
	// itself an extension — and whose index it reads.
	base *Dimension
	// members are the added members; the first has ID len(base table),
	// and paths[i] is members[i]'s path.
	members []*Member
	paths   []string
	// cow holds the extension's copies of members whose Children grew —
	// a parent of an added member. Member resolves through it first.
	cow map[MemberID]*Member
	// byPath indexes the added members' paths, and instances holds the
	// full instance list of every name that gained an instance.
	byPath    map[string]MemberID
	instances map[string][]MemberID
	// leaves are the added leaves; the first has ordinal len(base
	// leaves), so every base ordinal keeps its meaning.
	leaves []MemberID
}

// Extend returns a dimension that takes AddHypothetical edits while d
// stays untouched: it shares d's member table and its path and instance
// indexes, read-only, and holds only what it adds — the new members,
// their paths, the grown instance lists, and a copy of each parent whose
// Children grew. Its cost follows what the extension adds, not the size
// of d. Extending an extension shares the same base tables and copies
// the (small) additions, so extensions never nest.
//
// d must not change while an extension of it is in use: a published
// dimension never does. An extension refuses Add, which would renumber
// the ordinals of members it shares.
func (d *Dimension) Extend() *Dimension {
	e := &Dimension{
		name: d.name, ordered: d.ordered, measure: d.measure,
		members:   d.members[:len(d.members):len(d.members)],
		paths:     d.paths[:len(d.paths):len(d.paths)],
		byPath:    d.byPath,
		instances: d.instances,
		leaves:    d.leaves[:len(d.leaves):len(d.leaves)],
		ext:       &extension{base: d},
	}
	if p := d.ext; p != nil {
		e.ext.base = p.base
		e.ext.members = p.members[:len(p.members):len(p.members)]
		e.ext.paths = p.paths[:len(p.paths):len(p.paths)]
		e.ext.leaves = p.leaves[:len(p.leaves):len(p.leaves)]
		e.ext.cow = maps.Clone(p.cow)
		e.ext.byPath = maps.Clone(p.byPath)
		e.ext.instances = maps.Clone(p.instances)
	}
	return e
}

// member resolves id on the extension of d, or returns nil when no
// member has it.
func (x *extension) member(d *Dimension, id MemberID) *Member {
	if m, ok := x.cow[id]; ok {
		return m
	}
	if id >= 0 && int(id) < len(d.members) {
		return d.members[id]
	}
	if i := int(id) - len(d.members); i >= 0 && i < len(x.members) {
		return x.members[i]
	}
	return nil
}

// addHypothetical records member m, with the given path, as the
// extension's newest member and leaf, and parent's copy with m appended
// to its Children.
func (x *extension) addHypothetical(parent, m *Member, path string, instances []MemberID) {
	if x.cow == nil {
		x.cow, x.byPath, x.instances = map[MemberID]*Member{}, map[string]MemberID{}, map[string][]MemberID{}
	}
	p := *parent
	p.Children = append(parent.Children[:len(parent.Children):len(parent.Children)], m.ID)
	x.cow[p.ID] = &p
	x.members = append(x.members, m)
	x.paths = append(x.paths, path)
	x.byPath[path] = m.ID
	x.instances[m.Name] = append(instances[:len(instances):len(instances)], m.ID)
	x.leaves = append(x.leaves, m.ID)
}
