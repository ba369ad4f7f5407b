// Package dimension implements the dimension model of the paper: member
// hierarchies, leaf ordinals used for cell addressing, and — the paper's
// key extension — member instances of varying dimensions together with
// their validity sets over a parameter dimension.
//
// A member of a varying dimension that is reclassified under different
// parents (e.g. employee Joe moving between FTE, PTE and Contractor)
// appears as several leaf nodes with the same simple name but distinct
// root-to-leaf paths. Each such node is a member instance; all instances
// of a member share its base name. At any leaf of the parameter dimension
// at most one instance of a member is valid (paper §2, §3.1).
//
// Reviewed for hotpathfmt: fmt here builds errors while hierarchies and
// edit scripts are constructed, never on the scan path.
//
//lint:coldfmt error construction at hierarchy/edit build time only
package dimension

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"whatifolap/internal/bitset"
)

// MemberID identifies a member (or member instance) within one dimension.
// IDs are dense indices into the dimension's member table.
type MemberID int32

// None is the MemberID used where no member applies (e.g. the parent of
// the root).
const None MemberID = -1

// Member is a node in a dimension hierarchy.
type Member struct {
	ID       MemberID
	Name     string // simple name, e.g. "Joe"
	Parent   MemberID
	Children []MemberID
	// Depth is the distance from the hierarchy root (root = 0).
	Depth int
	// LeafOrdinal is the member's position in the dimension's leaf order,
	// or -1 for non-leaf members. Leaf ordinals address cube cells.
	LeafOrdinal int
}

// IsLeaf reports whether the member has no children.
func (m *Member) IsLeaf() bool { return len(m.Children) == 0 }

// Dimension is a named hierarchy of members. The root member carries the
// dimension's name and is not part of member paths.
type Dimension struct {
	name    string
	ordered bool
	measure bool

	members []*Member
	// paths[id] is member id's path, the string byPath holds: a member's
	// path never changes, so Add appends it and Path is a slice read.
	paths  []string
	byPath map[string]MemberID
	// instances maps a base name to all leaf members carrying it, in
	// insertion order. A member with len(instances[name]) > 1 is a
	// varying member with multiple instances.
	instances map[string][]MemberID
	leaves    []MemberID
	// ext is non-nil on an extension (Extend): the members, paths,
	// instance lists and leaves it adds to the tables above, which it
	// shares with the dimension it extends and never writes.
	ext *extension
	// idx is the index readers derive from the tables above (index), nil
	// until the first reader builds it; Add drops it. An extension keeps
	// none: it reads its base's.
	idx atomic.Pointer[index]
}

// index is what a dimension derives from its member table for readers,
// once: per member, its height and the range [lo, hi) of the leaf
// ordinals at or below it — depth-first numbering (renumberLeaves) gives
// a member's leaves consecutive ordinals, so the leaves under any member
// are one range.
type index struct {
	lo, hi, height []int32
}

// index returns the dimension's index, building and publishing it on
// first use. Concurrent first readers may each build one; they are
// equal, and the last stored wins. An extension reads its base's, which
// covers every member the extension shares.
func (d *Dimension) index() *index {
	if d.ext != nil {
		return d.ext.base.index()
	}
	if x := d.idx.Load(); x != nil {
		return x
	}
	n := len(d.members)
	x := &index{lo: make([]int32, n), hi: make([]int32, n), height: make([]int32, n)}
	for id, m := range d.members {
		if m.LeafOrdinal >= 0 {
			x.lo[id], x.hi[id] = int32(m.LeafOrdinal), int32(m.LeafOrdinal)+1
		} else {
			x.lo[id], x.hi[id] = math.MaxInt32, 0
		}
	}
	// A member's ID is above its parent's (Add appends under an existing
	// parent), so one pass down the IDs folds every subtree into its
	// parent after the subtree is complete.
	for id := n - 1; id > 0; id-- {
		p := d.members[id].Parent
		x.lo[p], x.hi[p] = min(x.lo[p], x.lo[id]), max(x.hi[p], x.hi[id])
		x.height[p] = max(x.height[p], x.height[id]+1)
	}
	if x.lo[0] > x.hi[0] { // a root with no leaves
		x.lo[0], x.hi[0] = 0, 0
	}
	d.idx.Store(x)
	return x
}

// New creates a dimension with only a root member. Ordered marks the
// dimension as an ordered parameter dimension candidate (e.g. Time):
// its leaf ordinals are interpreted as a temporal order by forward and
// backward perspective semantics.
func New(name string, ordered bool) *Dimension {
	d := &Dimension{
		name:      name,
		ordered:   ordered,
		byPath:    make(map[string]MemberID),
		instances: make(map[string][]MemberID),
	}
	root := &Member{ID: 0, Name: name, Parent: None, Depth: 0, LeafOrdinal: -1}
	d.members = append(d.members, root)
	d.paths = append(d.paths, "")
	return d
}

// Name returns the dimension's name.
func (d *Dimension) Name() string { return d.name }

// Ordered reports whether the dimension is ordered (usable as an ordered
// parameter dimension).
func (d *Dimension) Ordered() bool { return d.ordered }

// Measure reports whether the dimension is a measures dimension.
func (d *Dimension) Measure() bool { return d.measure }

// MarkMeasure flags the dimension as a measures dimension; rules treat
// its members as computed quantities rather than aggregation targets.
func (d *Dimension) MarkMeasure() { d.measure = true }

// Root returns the ID of the hierarchy root.
func (d *Dimension) Root() MemberID { return 0 }

// Member returns the member with the given ID. It panics on an invalid
// ID, which indicates corrupted addressing.
func (d *Dimension) Member(id MemberID) *Member {
	if d.ext != nil {
		if m := d.ext.member(d, id); m != nil {
			return m
		}
	} else if id >= 0 && int(id) < len(d.members) {
		return d.members[id]
	}
	panic(fmt.Sprintf("dimension %s: invalid member id %d", d.name, id))
}

// NumMembers returns the total number of members including the root.
func (d *Dimension) NumMembers() int {
	if d.ext != nil {
		return len(d.members) + len(d.ext.members)
	}
	return len(d.members)
}

// NumLeaves returns the number of leaf members (= the dimension's extent
// in cell addressing).
func (d *Dimension) NumLeaves() int {
	if d.ext != nil {
		return len(d.leaves) + len(d.ext.leaves)
	}
	return len(d.leaves)
}

// Leaves returns the leaf member IDs in ordinal order. The returned slice
// must not be modified. An extension with added leaves builds it anew on
// each call, so a caller that indexes by ordinal or calls it inside a
// loop uses Leaf and NumLeaves, which do not.
func (d *Dimension) Leaves() []MemberID {
	if d.ext == nil || len(d.ext.leaves) == 0 {
		return d.leaves
	}
	return append(d.leaves[:len(d.leaves):len(d.leaves)], d.ext.leaves...)
}

// Leaf returns the leaf member at the given ordinal.
func (d *Dimension) Leaf(ordinal int) *Member {
	if ordinal < 0 || ordinal >= d.NumLeaves() {
		panic(fmt.Sprintf("dimension %s: leaf ordinal %d out of range [0,%d)", d.name, ordinal, d.NumLeaves()))
	}
	if ordinal >= len(d.leaves) {
		return d.Member(d.ext.leaves[ordinal-len(d.leaves)])
	}
	// An extension never copies a base leaf: only parents gain children.
	return d.members[d.leaves[ordinal]]
}

// Path returns the root-to-member path of a member, e.g. "FTE/Joe". The
// root itself has the empty path. It reads the path Add (or, for a
// member an extension added, AddHypothetical) recorded, and allocates
// nothing.
func (d *Dimension) Path(id MemberID) string {
	if id >= 0 && int(id) < len(d.paths) {
		return d.paths[id]
	}
	if d.ext != nil {
		if i := int(id) - len(d.paths); i >= 0 && i < len(d.ext.paths) {
			return d.ext.paths[i]
		}
	}
	d.Member(id) // panics on an invalid ID
	return ""
}

// LeafRanges calls fn with the ranges [lo, hi) of the leaf ordinals at or
// below member id (the member itself if it is a leaf), ascending and
// disjoint: one range, read from the index — and on an extension one
// more for each leaf it added below id, whose ordinal lies past the
// leaves of its base (AddHypothetical).
func (d *Dimension) LeafRanges(id MemberID, fn func(lo, hi int)) {
	if id >= 0 && int(id) < len(d.members) {
		x := d.index()
		if lo, hi := x.lo[id], x.hi[id]; lo < hi {
			fn(int(lo), int(hi))
		}
	} else {
		d.Member(id) // an extension's own member, or a panic
	}
	if d.ext == nil {
		return
	}
	for _, l := range d.ext.leaves {
		if d.IsDescendant(l, id) {
			o := d.Member(l).LeafOrdinal
			fn(o, o+1)
		}
	}
}

// Add appends a new member with the given simple name under the parent
// identified by parentPath ("" denotes the dimension root). It returns
// the new member's ID. Adding a child under a member that was previously
// a leaf promotes that member to non-leaf and renumbers leaf ordinals.
//
// Adding a leaf whose simple name already exists as a leaf elsewhere in
// the hierarchy creates a new instance of that (varying) member.
//
// An extension refuses Add: renumbering would rewrite the leaf ordinals
// of the members it shares with its base. It takes AddHypothetical.
func (d *Dimension) Add(parentPath, name string) (MemberID, error) {
	if d.ext != nil {
		return None, fmt.Errorf("dimension %s: Add renumbers leaf ordinals, which an extension shares with its base; add %q with AddHypothetical", d.name, name)
	}
	if name == "" {
		return None, fmt.Errorf("dimension %s: empty member name", d.name)
	}
	if strings.Contains(name, "/") {
		return None, fmt.Errorf("dimension %s: member name %q must not contain '/'", d.name, name)
	}
	parent, err := d.lookupPath(parentPath)
	if err != nil {
		return None, err
	}
	path := name
	if parentPath != "" {
		path = parentPath + "/" + name
	}
	if _, dup := d.byPath[path]; dup {
		return None, fmt.Errorf("dimension %s: member path %q already exists", d.name, path)
	}
	p := d.Member(parent)
	id := MemberID(len(d.members))
	m := &Member{ID: id, Name: name, Parent: parent, Depth: p.Depth + 1, LeafOrdinal: -1}
	d.members = append(d.members, m)
	d.paths = append(d.paths, path)
	d.byPath[path] = id
	wasLeaf := p.IsLeaf() && p.Parent != None
	p.Children = append(p.Children, id)
	if wasLeaf {
		// Parent stops being a leaf; drop it from instance and leaf
		// bookkeeping and renumber.
		d.removeInstance(p.Name, p.ID)
	}
	d.instances[name] = append(d.instances[name], id)
	d.renumberLeaves()
	d.idx.Store(nil)
	return id, nil
}

// MustAdd is Add that panics on error; it is intended for statically
// known hierarchies in tests and examples.
func (d *Dimension) MustAdd(parentPath, name string) MemberID {
	id, err := d.Add(parentPath, name)
	if err != nil {
		panic(err)
	}
	return id
}

func (d *Dimension) removeInstance(name string, id MemberID) {
	inst := d.instances[name]
	for i, x := range inst {
		if x == id {
			d.instances[name] = append(inst[:i:i], inst[i+1:]...)
			break
		}
	}
	if len(d.instances[name]) == 0 {
		delete(d.instances, name)
	}
}

// renumberLeaves recomputes the leaf list and ordinals in depth-first
// hierarchy order, which keeps siblings (and for ordered dimensions the
// insertion order of time points) adjacent in cell addressing.
func (d *Dimension) renumberLeaves() {
	d.leaves = d.leaves[:0]
	var walk func(id MemberID)
	walk = func(id MemberID) {
		m := d.members[id]
		if m.IsLeaf() && m.Parent != None {
			m.LeafOrdinal = len(d.leaves)
			d.leaves = append(d.leaves, id)
			return
		}
		m.LeafOrdinal = -1
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(0)
}

func (d *Dimension) lookupPath(path string) (MemberID, error) {
	if path == "" {
		return 0, nil
	}
	if id, ok := d.pathID(path); ok {
		return id, nil
	}
	return None, fmt.Errorf("dimension %s: no member with path %q", d.name, path)
}

// pathID returns the member whose path is path, in the dimension's own
// index and then in an extension's.
func (d *Dimension) pathID(path string) (MemberID, bool) {
	id, ok := d.byPath[path]
	if !ok && d.ext != nil {
		id, ok = d.ext.byPath[path]
	}
	return id, ok
}

// Lookup resolves a member reference. It accepts a full path ("FTE/Joe"),
// a simple name when that name is unambiguous in the dimension ("Jane"),
// or the dimension name itself (the root). Ambiguous simple names (a
// varying member with several instances) are an error: the caller must
// qualify the instance or use Instances.
func (d *Dimension) Lookup(ref string) (MemberID, error) {
	if id, ok := d.Find(ref); ok {
		return id, nil
	}
	if strings.Contains(ref, "/") {
		return None, fmt.Errorf("dimension %s: no member with path %q", d.name, ref)
	}
	if _, n := d.named(ref); n > 1 {
		return None, fmt.Errorf("dimension %s: member name %q is ambiguous (%d instances); qualify with a parent path", d.name, ref, n)
	}
	return None, fmt.Errorf("dimension %s: no member named %q", d.name, ref)
}

// Find resolves a member reference by Lookup's rules and reports whether
// it resolved. It formats no error and allocates nothing, so a caller
// probing several dimensions for a reference pays nothing for the misses.
func (d *Dimension) Find(ref string) (MemberID, bool) {
	if ref == d.name {
		return 0, true
	}
	if id, ok := d.pathID(ref); ok {
		return id, true
	}
	if strings.Contains(ref, "/") {
		return None, false
	}
	// Simple-name resolution: unique across all members.
	if found, n := d.named(ref); n == 1 {
		return found, true
	}
	return None, false
}

// named counts the members (the root excluded) whose simple name is ref
// and returns the last of them. A copy an extension made of a shared
// member keeps its name, so the shared table counts for it.
func (d *Dimension) named(ref string) (MemberID, int) {
	found, n := None, 0
	count := func(ms []*Member) {
		for _, m := range ms {
			if m.Name == ref {
				found, n = m.ID, n+1
			}
		}
	}
	count(d.members[1:])
	if d.ext != nil {
		count(d.ext.members)
	}
	return found, n
}

// MustLookup is Lookup that panics on error.
func (d *Dimension) MustLookup(ref string) MemberID {
	id, err := d.Lookup(ref)
	if err != nil {
		panic(err)
	}
	return id
}

// Instances returns the IDs of all leaf members sharing the given base
// name, in insertion order. For a non-varying member this is a single ID;
// for an unknown name it is nil.
func (d *Dimension) Instances(baseName string) []MemberID {
	if d.ext != nil {
		if ids, ok := d.ext.instances[baseName]; ok {
			return ids
		}
	}
	return d.instances[baseName]
}

// VaryingMembers returns the base names that have more than one instance,
// sorted for determinism.
func (d *Dimension) VaryingMembers() []string {
	var names []string
	for name, ids := range d.instances {
		if d.ext != nil {
			if _, grew := d.ext.instances[name]; grew {
				continue
			}
		}
		if len(ids) > 1 {
			names = append(names, name)
		}
	}
	if d.ext != nil {
		for name, ids := range d.ext.instances {
			if len(ids) > 1 {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// IsDescendant reports whether member id is a strict or non-strict
// descendant of ancestor (a member is its own descendant).
func (d *Dimension) IsDescendant(id, ancestor MemberID) bool {
	for id != None {
		if id == ancestor {
			return true
		}
		id = d.Member(id).Parent
	}
	return false
}

// LeafDescendants returns the leaf ordinals of all leaf members under the
// given member (the member itself if it is a leaf), in ordinal order.
func (d *Dimension) LeafDescendants(id MemberID) []int {
	var out []int
	d.LeafRanges(id, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			out = append(out, o)
		}
	})
	return out
}

// Height returns the number of edges on the longest root-to-leaf path of
// the member's subtree: leaves have height 0. An extension adds leaves
// only, under members that are not leaves, so a member it shares keeps
// its base height — but a childless root that gained a leaf.
func (d *Dimension) Height(id MemberID) int {
	if id < 0 || int(id) >= len(d.members) {
		d.Member(id) // an extension's own member, a leaf, or a panic
		return 0
	}
	h := int(d.index().height[id])
	if h == 0 && !d.Member(id).IsLeaf() {
		h = 1
	}
	return h
}

// LevelMembers returns all members at the given level counted from the
// leaves (Essbase convention: level 0 = leaf members), in hierarchy
// order. The root is excluded.
func (d *Dimension) LevelMembers(level int) []MemberID {
	var out []MemberID
	var walk func(MemberID)
	walk = func(x MemberID) {
		m := d.Member(x)
		if m.Parent != None && d.Height(x) == level {
			out = append(out, x)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(0)
	return out
}

// GenerationMembers returns all members at the given depth from the root
// (generation 1 = children of the root), in hierarchy order.
func (d *Dimension) GenerationMembers(gen int) []MemberID {
	var out []MemberID
	var walk func(MemberID)
	walk = func(x MemberID) {
		m := d.Member(x)
		if m.Depth == gen && m.Parent != None {
			out = append(out, x)
		}
		if m.Depth < gen {
			for _, c := range m.Children {
				walk(c)
			}
		}
	}
	walk(0)
	return out
}

// Binding declares that varying dimension Varying changes as a function
// of parameter dimension Param, and records the validity set of every
// leaf member instance of Varying over the leaves of Param (paper
// Definition 2.1).
type Binding struct {
	Varying *Dimension
	Param   *Dimension
	// vs maps a leaf member (instance) of Varying to its validity set
	// over Param's leaf ordinals. Instances absent from it (and from
	// shared) are valid everywhere: non-varying members need not be
	// enumerated.
	vs map[MemberID]*bitset.Set
	// shared, on a binding made by Derive, is the validity-set map of the
	// binding it was derived from, read-only: vs overrides it.
	shared map[MemberID]*bitset.Set
	// derived is what a reader computed from the sets above and keeps
	// with the binding (Derived), so that it dies with the binding; Put
	// drops it.
	derived atomic.Pointer[any]
}

// NewBinding creates an empty binding between a varying and a parameter
// dimension.
func NewBinding(varying, param *Dimension) *Binding {
	return &Binding{Varying: varying, Param: param, vs: make(map[MemberID]*bitset.Set)}
}

// Derive returns a binding of varying — an extension of b.Varying — to
// b.Param that shares every validity set of b: Put overrides one without
// touching b, and deriving costs nothing per instance. b must not change
// while the derived binding is in use, as a published binding never
// does. A binding derived from a derived binding shares the same map and
// copies the (small) overrides.
func (b *Binding) Derive(varying *Dimension) *Binding {
	if b.shared == nil {
		return &Binding{Varying: varying, Param: b.Param, vs: map[MemberID]*bitset.Set{}, shared: b.vs}
	}
	return &Binding{Varying: varying, Param: b.Param, vs: maps.Clone(b.vs), shared: b.shared}
}

// SetVS records the validity set of a member instance, given parameter
// leaf ordinals.
func (b *Binding) SetVS(instance MemberID, paramOrdinals ...int) {
	b.Put(instance, bitset.FromSlice(b.Param.NumLeaves(), paramOrdinals))
}

// Put records vs as the validity set of a member instance. The binding
// holds on to vs: edit a set only before putting it, and put a clone of
// a set read from the binding.
func (b *Binding) Put(instance MemberID, vs *bitset.Set) {
	b.vs[instance] = vs
	b.derived.Store(nil)
}

// Derived returns the value last kept with SetDerived, or nil when none
// is kept: none was, or a Put has edited the binding since. Readers use
// it to compute a function of the binding's sets once per published
// binding and share it (the engine's planning index).
func (b *Binding) Derived() any {
	if p := b.derived.Load(); p != nil {
		return *p
	}
	return nil
}

// SetDerived keeps v with the binding for Derived to return until the
// next Put. Concurrent callers may race; the last one wins, so v must
// be a pure function of the binding.
func (b *Binding) SetDerived(v any) { b.derived.Store(&v) }

// Explicit returns the validity set recorded for a member instance and
// true, or nil and false when it has none (it is valid everywhere). The
// set belongs to the binding and must not be modified.
func (b *Binding) Explicit(instance MemberID) (*bitset.Set, bool) {
	vs, ok := b.vs[instance]
	if !ok && b.shared != nil {
		vs, ok = b.shared[instance]
	}
	return vs, ok
}

// ValiditySet returns the validity set of the given leaf member instance.
// Members without an explicit entry are valid at every parameter leaf.
func (b *Binding) ValiditySet(instance MemberID) *bitset.Set {
	if vs, ok := b.Explicit(instance); ok {
		return vs
	}
	all := bitset.New(b.Param.NumLeaves())
	all.AddRange(0, b.Param.NumLeaves())
	return all
}

// InstanceAt returns the instance of the given base name valid at the
// parameter leaf ordinal t, or None if no instance is valid there. This
// is the d_t of the paper's relocate semantics.
func (b *Binding) InstanceAt(baseName string, t int) MemberID {
	for _, id := range b.Varying.Instances(baseName) {
		// Probe the entry directly: ValiditySet builds a fresh all-ones
		// set for every instance without one.
		if vs, ok := b.Explicit(id); ok && vs.Contains(t) || !ok && 0 <= t && t < b.Param.NumLeaves() {
			return id
		}
	}
	return None
}

// Validate checks the core invariant of the model: validity sets of
// different instances of the same member never overlap (paper §2).
func (b *Binding) Validate() error {
	return b.ValidateMembers(b.Varying.VaryingMembers())
}

// ValidateMembers checks Validate's invariant for the instances of the
// named members only, in the order given: what an edit of a binding
// that was valid before must re-check.
func (b *Binding) ValidateMembers(names []string) error {
	for _, name := range names {
		ids := b.Varying.Instances(name)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				vi, vj := b.ValiditySet(ids[i]), b.ValiditySet(ids[j])
				if vi.Intersects(vj) {
					return fmt.Errorf("binding %s/%s: instances %q and %q of member %q have overlapping validity sets %v and %v",
						b.Varying.Name(), b.Param.Name(),
						b.Varying.Path(ids[i]), b.Varying.Path(ids[j]), name, vi, vj)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the binding rebased onto the given
// dimensions (extensions of the binding's own, or the same ones).
func (b *Binding) Clone(varying, param *Dimension) *Binding {
	c := NewBinding(varying, param)
	for id, vs := range b.shared {
		c.vs[id] = vs.Clone()
	}
	for id, vs := range b.vs {
		c.vs[id] = vs.Clone()
	}
	return c
}
