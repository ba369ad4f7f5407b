// Scenario-workspace edits: hypothetical member introduction and
// validity-window edits. A hypothetical member is added only to an
// extension (Extend) of the base dimension, and a window is set only on
// a binding of such an extension (Binding.Derive, Binding.Clone), each
// owned by one scenario or one positive-scenario query — the base
// cube's hierarchies and validity sets are never touched.
//
// The critical difference from Add is ordinal stability. Add renumbers
// leaf ordinals in depth-first hierarchy order, which would shift the
// addressing of every cell already stored in the base cube's chunks.
// A hypothetical member therefore takes the next ordinal at the END of
// the ordinal space — above the base ID space — so base chunks keep
// their layout and only the scenario's own layers (built on a wider
// geometry) hold the new member's cells.
package dimension

import (
	"fmt"
	"strings"

	"whatifolap/internal/bitset"
)

// AddHypothetical appends a hypothetical new leaf member under
// parentPath ("" = the dimension root) of an extension (Extend) without
// renumbering existing leaf ordinals: the new member's ordinal is the
// previous leaf count. A dimension that is not an extension refuses it,
// as an extension refuses Add.
// The parent must be the root or an existing non-leaf member — placing
// a child under a leaf would demote that leaf and force renumbering,
// which AddHypothetical exists to avoid. Rollup routes the new
// member's cells through the chosen parent exactly like any other
// child.
//
// A name that already exists as a leaf elsewhere creates a new
// instance of that (varying) member, to be given a validity window
// with Binding.SetWindow.
func (d *Dimension) AddHypothetical(parentPath, name string) (MemberID, error) {
	if d.ext == nil {
		return None, fmt.Errorf("dimension %s: AddHypothetical edits an extension, which leaves its base untouched; add %q to an Extend of the dimension", d.name, name)
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
	p := d.Member(parent)
	if p.IsLeaf() && p.Parent != None {
		return None, fmt.Errorf("dimension %s: hypothetical member %q needs a non-leaf parent, but %q is a leaf (adding under it would renumber base ordinals)", d.name, name, parentPath)
	}
	path := name
	if parentPath != "" {
		path = parentPath + "/" + name
	}
	if _, dup := d.pathID(path); dup {
		return None, fmt.Errorf("dimension %s: member path %q already exists", d.name, path)
	}
	id := MemberID(d.NumMembers())
	m := &Member{
		ID:          id,
		Name:        name,
		Parent:      parent,
		Depth:       p.Depth + 1,
		LeafOrdinal: d.NumLeaves(),
	}
	d.ext.addHypothetical(p, m, path, d.Instances(name))
	return id, nil
}

// SetWindow assigns the parameter-leaf window [lo, hi] (inclusive) to
// the instance's validity set and removes that window from every other
// instance of the same base member — SCD Type-2 takeover semantics:
// claiming an interval for one instance evicts its siblings from it,
// preserving the model invariant that at most one instance of a member
// is valid at any parameter point (paper §2). Ordinals outside the
// window keep their previous assignment.
func (b *Binding) SetWindow(instance MemberID, lo, hi int) error {
	n := b.Param.NumLeaves()
	if lo < 0 || hi >= n || lo > hi {
		return fmt.Errorf("binding %s/%s: validity window [%d,%d] out of parameter range [0,%d]", b.Varying.Name(), b.Param.Name(), lo, hi, n-1)
	}
	m := b.Varying.Member(instance)
	if m.LeafOrdinal < 0 {
		return fmt.Errorf("binding %s/%s: %q is not a leaf instance", b.Varying.Name(), b.Param.Name(), b.Varying.Path(instance))
	}
	window := bitset.New(n)
	window.AddRange(lo, hi+1)
	for _, sib := range b.Varying.Instances(m.Name) {
		if sib == instance {
			continue
		}
		vs := b.ValiditySet(sib).Clone()
		vs.SubtractWith(window)
		b.Put(sib, vs)
	}
	if vs, ok := b.Explicit(instance); ok {
		vs = vs.Clone()
		vs.UnionWith(window)
		b.Put(instance, vs)
	} else {
		// First explicit claim: the instance is valid exactly in the
		// window (an implicit "valid everywhere" would overlap its
		// siblings and break the invariant).
		b.Put(instance, window)
	}
	return nil
}
