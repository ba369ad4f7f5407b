package algebra

import (
	"fmt"
	"slices"

	"whatifolap/internal/bitset"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
)

// Select implements σ_p (Definition 4.1): the output cube is the input
// with the sub-cubes of the named dimension's leaf members that fail the
// predicate removed. Derived cells whose coordinate in the dimension is
// non-leaf are retained (their values correspond to non-visual
// evaluation until re-evaluated).
//
// If the dimension is varying, removed instances also get an empty
// validity set in the output binding: a member with no data is inactive
// (paper §2), and keeping the metadata consistent with the data makes
// σ compose correctly with subsequent perspectives (the optimizer's
// static-as-selection rewrite relies on this).
func Select(cin *cube.Cube, dimName string, p Predicate) (*cube.Cube, error) {
	di := cin.DimIndex(dimName)
	if di < 0 {
		return nil, fmt.Errorf("algebra: select: unknown dimension %q", dimName)
	}
	d := cin.Dim(di)
	keep := make([]bool, d.NumLeaves())
	for o, id := range d.Leaves() {
		ok, err := p.Eval(cin, di, id)
		if err != nil {
			return nil, err
		}
		keep[o] = ok
	}
	out := cin.CloneSchema()
	cin.Store().NonNull(func(addr []int, v float64) bool {
		if keep[addr[di]] {
			out.SetLeaf(addr, v)
		}
		return true
	})
	cin.DerivedCells(func(ids []dimension.MemberID, v float64) bool {
		m := d.Member(ids[di])
		if m.LeafOrdinal < 0 || keep[m.LeafOrdinal] {
			out.SetValue(ids, v)
		}
		return true
	})
	// Invalidate removed instances in the output's bindings.
	bs := out.Bindings()
	for i, b := range bs {
		if b.Varying != d {
			continue
		}
		nb := b.Clone(b.Varying, b.Param)
		for o, id := range d.Leaves() {
			if !keep[o] {
				nb.Put(id, bitset.New(b.Param.NumLeaves()))
			}
		}
		bs[i] = nb
	}
	return out, nil
}

// VSFunc supplies the output validity set of a varying-dimension leaf
// instance. A nil return means the instance's validity is unchanged
// (identity).
type VSFunc func(id dimension.MemberID) *bitset.Set

// Relocate implements ρ(Cin, VSout) (Definition 4.4): for every leaf cell
// (d, t, ē) of the output, if t ∈ VSout(d) the value is copied from the
// input cell of the instance d_t of d's member valid at t; otherwise the
// cell is ⊥. Non-leaf (derived) cells coincide with the input, matching
// non-visual evaluation.
//
// The implementation pushes input cells to their unique output target:
// validity sets of instances of one member are pairwise disjoint, so an
// input cell (d_t, t, ē) lands on at most one instance d with
// t ∈ VSout(d).
func Relocate(cin *cube.Cube, b *dimension.Binding, vsOut VSFunc) (*cube.Cube, error) {
	di := cin.DimIndex(b.Varying.Name())
	pi := cin.DimIndex(b.Param.Name())
	if di < 0 || pi < 0 {
		return nil, fmt.Errorf("algebra: relocate: binding dimensions %s/%s not in cube schema",
			b.Varying.Name(), b.Param.Name())
	}
	d := b.Varying

	// For each (source leaf ordinal, t) compute the target leaf ordinal,
	// or -1 when the cell vanishes. Sources sharing a base member share
	// the target table.
	nT := b.Param.NumLeaves()
	target := make([][]int, d.NumLeaves())
	for o, id := range d.Leaves() {
		base := d.Member(id).Name
		row := make([]int, nT)
		for t := 0; t < nT; t++ {
			row[t] = -1
			// The source cell at (id, t) is meaningful only if id is
			// valid at t in the input.
			if !b.ValiditySet(id).Contains(t) {
				continue
			}
			// Find the (unique) sibling instance whose output validity
			// covers t; it pulls this cell's value.
			for _, sib := range d.Instances(base) {
				svs := vsOut(sib)
				if svs == nil {
					// Identity: sibling keeps its input validity.
					svs = b.ValiditySet(sib)
				}
				if svs.Contains(t) {
					row[t] = d.Member(sib).LeafOrdinal
					break
				}
			}
		}
		target[o] = row
	}

	out := cin.CloneSchema()
	addr := make([]int, cin.NumDims())
	cin.Store().NonNull(func(in []int, v float64) bool {
		tgt := target[in[di]][in[pi]]
		if tgt < 0 {
			return true
		}
		copy(addr, in)
		addr[di] = tgt
		out.SetLeaf(addr, v)
		return true
	})
	// Non-leaf cells coincide with the input (Definition 4.4).
	cin.DerivedCells(func(ids []dimension.MemberID, v float64) bool {
		out.SetValue(ids, v)
		return true
	})
	// The output binding reflects the transformed validity sets.
	nb := b.Clone(b.Varying, b.Param)
	for _, id := range d.Leaves() {
		if s := vsOut(id); s != nil {
			nb.Put(id, s.Clone())
		}
	}
	replaceBinding(out, b, nb)
	return out, nil
}

// replaceBinding swaps binding old for nb in the cube's binding list.
func replaceBinding(c *cube.Cube, old, nb *dimension.Binding) {
	bs := c.Bindings()
	for i, b := range bs {
		if b == old {
			bs[i] = nb
			return
		}
	}
	// The schema clone shares the bindings slice contents; if old was not
	// found the cube had no such binding, which cannot happen for cubes
	// produced by CloneSchema of the input.
	panic("algebra: relocate: input binding not found in output cube")
}

// Change is one tuple of the positive-scenario relation R(m, o, n, t)
// (paper §3.4): the instance of member m currently under parent o is
// hypothetically reclassified under non-leaf member n from parameter
// moment t onward.
type Change struct {
	Member    string // base name of the (leaf) member, e.g. "Lisa"
	OldParent string // path of the current parent, e.g. "FTE"
	NewParent string // path of the hypothetical parent, e.g. "PTE"
	T         int    // parameter leaf ordinal of the change moment
}

// SplitPlan is the metadata outcome of planning a positive scenario: the
// extended varying dimension, its rebased binding with split validity
// sets, and the per-moment cell redirection map. The perspective-cube
// engine consumes plans directly; Split materializes them on a cube.
type SplitPlan struct {
	// Dim extends the varying dimension (dimension.Extend) with the
	// hypothetical instances R names. Every pre-existing member keeps
	// its ID and its leaf ordinal; a new instance takes the next ordinal
	// past the base extent.
	Dim *dimension.Dimension
	// Binding is the rebased binding with post-split validity sets. It
	// shares every validity set the split does not change.
	Binding *dimension.Binding
	// Redirect maps a source instance's leaf ID to its per-moment
	// destination leaf ID (identity when unchanged). Instances absent
	// from the map are untouched.
	Redirect map[dimension.MemberID][]dimension.MemberID
}

// PlanSplit computes the dimension extension, validity-set splits and
// cell redirections for a positive-scenario relation R without touching
// cell data (the metadata half of Definition 4.5). Its cost follows |R|:
// the dimension is extended, not copied, the binding's unchanged
// validity sets are shared, and only the instances of the members R
// names are validated — the base binding was validated when it was
// built or edited.
func PlanSplit(b *dimension.Binding, changes []Change) (*SplitPlan, error) {
	if !b.Param.Ordered() {
		return nil, fmt.Errorf("algebra: split: parameter dimension %s must be ordered", b.Param.Name())
	}
	nT := b.Param.NumLeaves()
	nd := b.Varying.Extend()
	nb := b.Derive(nd)

	// redirect[srcLeafID][t] = destination leaf ID for cells of the
	// source instance at moment t. Start with identity.
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

	var named []string
	for _, ch := range changes {
		if ch.T < 0 || ch.T >= nT {
			return nil, fmt.Errorf("algebra: split: change moment %d outside parameter dimension %s", ch.T, b.Param.Name())
		}
		oldPath := ch.OldParent + "/" + ch.Member
		oldID, err := nd.Lookup(oldPath)
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
		newID, ok := nd.Find(nd.Path(np) + "/" + ch.Member)
		if !ok {
			// Create the new instance, at the end of the ordinal space.
			newID, err = nd.AddHypothetical(nd.Path(np), ch.Member)
			if err != nil {
				return nil, fmt.Errorf("algebra: split: %w", err)
			}
			nb.Put(newID, bitset.New(nT))
		}
		if !slices.Contains(named, ch.Member) {
			named = append(named, ch.Member)
		}
		// Split validity: moments ≥ t migrate from old to new.
		oldVS := nb.ValiditySet(oldID).Clone()
		newVS := nb.ValiditySet(newID).Clone()
		moved := bitset.New(nT)
		moved.AddRange(ch.T, nT)
		moved.IntersectWith(oldVS)
		oldVS.SubtractWith(moved)
		newVS.UnionWith(moved)
		nb.Put(oldID, oldVS)
		nb.Put(newID, newVS)
		// Record cell redirection for the moved moments.
		r := redirectFor(oldID)
		moved.ForEach(func(t int) { r[t] = newID })
		// Cells previously redirected to oldID from other sources must
		// follow the move too (chained changes).
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
	slices.Sort(named)
	if err := nb.ValidateMembers(named); err != nil {
		return nil, fmt.Errorf("algebra: split produced invalid binding: %w", err)
	}
	return &SplitPlan{Dim: nd, Binding: nb, Redirect: redirect}, nil
}

// Split implements S(Cin, R) (Definition 4.5). For each change the
// varying dimension is extended with the instance
// NewParent/Member (if absent); leaf cells of OldParent/Member at
// moments ≥ t move to the new instance, and validity sets are split
// accordingly. Non-leaf cells are copied unchanged (non-visual default).
//
// Changes are applied left to right, so a member may be moved several
// times at increasing moments (scenario S1 of the paper's introduction).
func Split(cin *cube.Cube, varyingName string, changes []Change) (*cube.Cube, error) {
	if len(changes) == 0 {
		return cin.Clone(), nil
	}
	b := cin.BindingFor(varyingName)
	if b == nil {
		return nil, fmt.Errorf("algebra: split: dimension %q has no varying binding", varyingName)
	}
	di := cin.DimIndex(varyingName)
	pi := cin.DimIndex(b.Param.Name())
	plan, err := PlanSplit(b, changes)
	if err != nil {
		return nil, err
	}
	nd, nb, redirect := plan.Dim, plan.Binding, plan.Redirect

	// Build the output cube over the new dimension.
	dims := make([]*dimension.Dimension, cin.NumDims())
	copy(dims, cin.Dims())
	dims[di] = nd
	out := cube.New(dims...)
	out.SetRules(cin.Rules())
	// Rebase bindings: the varying binding is nb; others carry over
	// unless they reference the replaced dimension.
	for _, ob := range cin.Bindings() {
		switch {
		case ob == b:
			if err := out.AddBinding(nb); err != nil {
				return nil, err
			}
		case ob.Varying == b.Varying || ob.Param == b.Varying:
			return nil, fmt.Errorf("algebra: split: dimension %s participates in multiple bindings; not supported", varyingName)
		default:
			if err := out.AddBinding(ob); err != nil {
				return nil, err
			}
		}
	}

	// Copy leaf cells, redirecting moved moments, through member IDs.
	addr := make([]int, cin.NumDims())
	cin.Store().NonNull(func(in []int, v float64) bool {
		srcID := cin.Dim(di).Leaf(in[di]).ID
		dstID := srcID
		if r, ok := redirect[srcID]; ok {
			dstID = r[in[pi]]
		}
		copy(addr, in)
		addr[di] = nd.Member(dstID).LeafOrdinal
		out.SetLeaf(addr, v)
		return true
	})
	// Non-leaf cells are copied unchanged (non-visual default,
	// Definition 4.5). Member IDs of pre-existing members are stable.
	cin.DerivedCells(func(ids []dimension.MemberID, v float64) bool {
		out.SetValue(ids, v)
		return true
	})
	return out, nil
}

// Eval implements E(C¹, C²) (Definition 4.6) for a requested set of
// cells: leaf cells read from C², non-leaf cells evaluate C¹'s rules
// with C² as the data scope. The full perspective cube is exponential in
// materialized form, so evaluation is demand-driven.
func Eval(defCube, dataCube *cube.Cube, ids []dimension.MemberID) (float64, error) {
	return defCube.Rules().EvalCell(defCube, dataCube, ids)
}

// CellValue reads one cell of a what-if query result under the given
// evaluation mode (paper §3.3): visual re-evaluates rules against the
// output cube cout; non-visual evaluates them against the input cube
// cin, retaining original aggregates. Leaf cells always come from cout.
func CellValue(cin, cout *cube.Cube, ids []dimension.MemberID, mode perspective.Mode) (float64, error) {
	if cout.IsLeafCell(ids) {
		// Leaf cells may still be rule-defined (e.g. Margin): evaluate
		// with the leaf scope of the output cube.
		return cout.Rules().EvalCell(cout, cout, ids)
	}
	if mode == perspective.Visual {
		// Rule definitions and data scope both come from the output
		// cube: split may have extended the varying dimension, and the
		// rule set is shared between input and output, so this is
		// E(Cin, Cout) with hierarchies resolved against Cout.
		return Eval(cout, cout, ids)
	}
	// Non-visual retains input aggregates. A tuple naming a member that
	// does not exist in the input — a hypothetical instance created by
	// split — has no input cell, so it is ⊥ (Definition 4.5: non-leaf
	// cells are copied from the input).
	for i, id := range ids {
		if int(id) >= cin.Dim(i).NumMembers() {
			return cube.Null, nil
		}
	}
	return Eval(cin, cin, ids)
}

// ApplyPerspectives runs the complete negative-scenario pipeline of
// Theorem 4.1 for the binding of the named varying dimension:
//
//	Cout = ρ(Cin, Φ_sem(VSin, P))
//
// Instances whose transformed validity set is empty vanish from the
// output (their sub-cubes are removed, Definition 3.4). The returned
// cube holds leaf cells; non-leaf cells are evaluated on demand through
// CellValue with the desired mode.
func ApplyPerspectives(cin *cube.Cube, varyingName string, sem perspective.Semantics, perspectives []int) (*cube.Cube, error) {
	b := cin.BindingFor(varyingName)
	if b == nil {
		return nil, fmt.Errorf("algebra: dimension %q has no varying binding", varyingName)
	}
	res, err := perspective.Apply(sem, b, perspectives)
	if err != nil {
		return nil, err
	}
	return Relocate(cin, b, func(id dimension.MemberID) *bitset.Set { return res.VSOut[id] })
}

// ApplyChanges runs the positive-scenario pipeline: Cout = S(Cin, R).
func ApplyChanges(cin *cube.Cube, varyingName string, changes []Change) (*cube.Cube, error) {
	return Split(cin, varyingName, changes)
}
