// Package perspective implements the Φ operator of the paper (§4.2): a
// pure metadata transformation that maps the validity sets of a varying
// dimension's member instances to the validity sets they have in the
// output of a what-if query with perspectives P.
//
// Φ is the semantic core of negative scenarios. Composed with selection,
// relocate and eval (package algebra), it captures every negative-
// scenario what-if query of the paper's extended MDX (Theorem 4.1).
//
// Reviewed for hotpathfmt: fmt here builds validation errors while
// perspectives are composed, before any chunk is scanned.
//
//lint:coldfmt validation-error construction at perspective build time only
package perspective

import (
	"fmt"
	"sort"

	"whatifolap/internal/bitset"
	"whatifolap/internal/dimension"
)

// Semantics selects how the structure at the perspective points is
// imposed on the rest of the parameter dimension (paper §3.3).
type Semantics int

const (
	// Static keeps only instances valid at some perspective point, with
	// their original validity sets and values.
	Static Semantics = iota
	// Forward imposes the structure at each perspective pᵢ onto the
	// interval [pᵢ, pᵢ₊₁) (pₖ₊₁ = +∞). Points before the first
	// perspective keep their original structure.
	Forward
	// ExtendedForward additionally imposes the structure at the first
	// perspective onto all points preceding it.
	ExtendedForward
	// Backward is the mirror image of Forward: the structure at pᵢ is
	// imposed onto (pᵢ₋₁, pᵢ] (p₀ = −∞); points after the last
	// perspective keep their original structure.
	Backward
	// ExtendedBackward additionally imposes the structure at the last
	// perspective onto all points following it.
	ExtendedBackward
)

// String returns the extended-MDX spelling of the semantics.
func (s Semantics) String() string {
	switch s {
	case Static:
		return "STATIC"
	case Forward:
		return "DYNAMIC FORWARD"
	case ExtendedForward:
		return "EXTENDED DYNAMIC FORWARD"
	case Backward:
		return "DYNAMIC BACKWARD"
	case ExtendedBackward:
		return "EXTENDED DYNAMIC BACKWARD"
	}
	return fmt.Sprintf("Semantics(%d)", int(s))
}

// Dynamic reports whether the semantics imposes structure beyond the
// perspective points themselves.
func (s Semantics) Dynamic() bool { return s != Static }

// Mode selects how non-leaf (derived) cells of the output cube are
// computed (paper §3.3).
type Mode int

const (
	// NonVisual retains the input cube's derived-cell values.
	NonVisual Mode = iota
	// Visual re-evaluates the rules defining derived cells on the
	// transformed cube.
	Visual
)

// String returns the extended-MDX spelling of the mode.
func (m Mode) String() string {
	switch m {
	case NonVisual:
		return "NONVISUAL"
	case Visual:
		return "VISUAL"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// NormalizePerspectives validates perspective ordinals against the
// parameter dimension and returns them sorted and deduplicated.
func NormalizePerspectives(param *dimension.Dimension, ps []int) ([]int, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("perspective: empty perspective set")
	}
	out := append([]int(nil), ps...)
	sort.Ints(out)
	dedup := out[:0]
	for i, p := range out {
		if p < 0 || p >= param.NumLeaves() {
			return nil, fmt.Errorf("perspective: ordinal %d outside parameter dimension %s (0..%d)",
				p, param.Name(), param.NumLeaves()-1)
		}
		if i > 0 && p == out[i-1] {
			continue
		}
		dedup = append(dedup, p)
	}
	return dedup, nil
}

// Result is the output of Φ: the transformed validity set of every leaf
// member instance of the varying dimension. Instances mapped to an empty
// set do not appear in the output cube (their sub-cubes are removed).
type Result struct {
	Binding *dimension.Binding
	// VSOut maps every leaf instance of the varying dimension to its
	// output validity set.
	VSOut map[dimension.MemberID]*bitset.Set
}

// Dropped returns the instances whose output validity set is empty, in
// leaf-ordinal order. Instances outside the result's scope (not present
// in VSOut) are not reported.
func (r *Result) Dropped() []dimension.MemberID {
	var out []dimension.MemberID
	d := r.Binding.Varying
	for o := 0; o < d.NumLeaves(); o++ {
		id := d.Leaf(o).ID
		if vs, ok := r.VSOut[id]; ok && vs.IsEmpty() {
			out = append(out, id)
		}
	}
	return out
}

// Apply computes Φ_sem(VSin, P) for every leaf instance of the binding's
// varying dimension. Perspectives are parameter-leaf ordinals; they are
// normalized internally. Dynamic semantics require an ordered parameter
// dimension (the paper defines forward/backward only for ordered
// parameters such as Time).
func Apply(sem Semantics, b *dimension.Binding, perspectives []int) (*Result, error) {
	return apply(sem, b, perspectives, b.Varying.Leaves())
}

// ApplyMembers computes Φ only for the instances of the given base
// members. The perspective-cube engine calls it once per hypothetical
// over the members Φ can move — no fixed point — and keeps the result
// with the binding, so planning stays confined to the varying members
// (the paper's §6.3: "ensuring that the instance merge operation is
// confined to query result sections with varying members ensures
// efficient computation").
func ApplyMembers(sem Semantics, b *dimension.Binding, perspectives []int, baseNames []string) (*Result, error) {
	var ids []dimension.MemberID
	for _, name := range baseNames {
		inst := b.Varying.Instances(name)
		if len(inst) == 0 {
			return nil, fmt.Errorf("perspective: dimension %s has no member %q", b.Varying.Name(), name)
		}
		ids = append(ids, inst...)
	}
	return apply(sem, b, perspectives, ids)
}

// FixedPoint reports whether Φ maps base member name to itself under
// every semantics and every perspective set: the member has exactly one
// instance, valid at every parameter leaf (b holds no validity set for
// it, or a full one). Such an instance is valid at every perspective, so
// Φs keeps its set, and its stretch under the dynamic semantics covers
// every leaf from the first perspective on (back to the last), the rest
// being its own validity retained or extended. Identity is the unit of
// Φ's composition: the engine reads a fixed point's cells where they
// are, as base rows, and plans nothing for it. A member with one
// instance valid on part of the parameter is no fixed point: STATIC
// {Jan} drops a March hire.
func FixedPoint(b *dimension.Binding, name string) bool {
	insts := b.Varying.Instances(name)
	if len(insts) != 1 {
		return false
	}
	vs, _ := b.Explicit(insts[0])
	return vs == nil || vs.Len() == b.Param.NumLeaves()
}

func apply(sem Semantics, b *dimension.Binding, perspectives []int, ids []dimension.MemberID) (*Result, error) {
	ps, err := NormalizePerspectives(b.Param, perspectives)
	if err != nil {
		return nil, err
	}
	if sem.Dynamic() && !b.Param.Ordered() {
		return nil, fmt.Errorf("perspective: %v requires an ordered parameter dimension; %s is unordered",
			sem, b.Param.Name())
	}
	n := b.Param.NumLeaves()
	res := &Result{Binding: b, VSOut: make(map[dimension.MemberID]*bitset.Set, len(ids))}

	// existsFor caches, per base member, the union of the validity sets
	// of its instances: the moments t at which some instance d_t exists.
	// Def. 3.3/3.4 exclude moments with no instance from output validity
	// sets.
	existsCache := make(map[string]*bitset.Set)
	existsFor := func(base string) *bitset.Set {
		if s, ok := existsCache[base]; ok {
			return s
		}
		s := bitset.New(n)
		for _, inst := range b.Varying.Instances(base) {
			s.UnionWith(b.ValiditySet(inst))
		}
		existsCache[base] = s
		return s
	}

	for _, id := range ids {
		base := b.Varying.Member(id).Name
		vsin := b.ValiditySet(id)
		var out *bitset.Set
		switch sem {
		case Static:
			out = staticVS(vsin, ps, n)
		case Forward:
			out = forwardVS(vsin, ps, n, existsFor(base), false)
		case ExtendedForward:
			out = forwardVS(vsin, ps, n, existsFor(base), true)
		case Backward:
			out = backwardVS(vsin, ps, n, existsFor(base), false)
		case ExtendedBackward:
			out = backwardVS(vsin, ps, n, existsFor(base), true)
		default:
			return nil, fmt.Errorf("perspective: unknown semantics %v", sem)
		}
		res.VSOut[id] = out
	}
	return res, nil
}

// staticVS implements Φs (Definition 4.2 combined with the active-member
// rule of Definition 3.4): instances valid at some perspective keep
// their input validity set; others are dropped.
func staticVS(vsin *bitset.Set, ps []int, n int) *bitset.Set {
	for _, p := range ps {
		if vsin.Contains(p) {
			return vsin.Clone()
		}
	}
	return bitset.New(n)
}

// forwardVS implements Φf and Φe,f (Definition 4.3). Stretch(d) is the
// union of the intervals [pᵢ, pᵢ₊₁) over perspectives pᵢ at which d was
// valid in the input, with pₖ₊₁ = +∞. The stretch is intersected with
// the moments at which some instance of d's base member exists.
func forwardVS(vsin *bitset.Set, ps []int, n int, exists *bitset.Set, extended bool) *bitset.Set {
	stretch := bitset.New(n)
	for i, p := range ps {
		if !vsin.Contains(p) {
			continue
		}
		hi := n
		if i+1 < len(ps) {
			hi = ps[i+1]
		}
		stretch.AddRange(p, hi)
	}
	if stretch.IsEmpty() {
		return stretch
	}
	pmin := ps[0]
	out := stretch
	if extended {
		if vsin.Contains(pmin) {
			out.AddRange(0, pmin)
		}
	} else {
		// Original validity before the first perspective is retained.
		pre := vsin.Clone()
		for t := pmin; t < n; t++ {
			if pre.Contains(t) {
				pre.Remove(t)
			}
		}
		out.UnionWith(pre)
	}
	out.IntersectWith(exists)
	return out
}

// backwardVS mirrors forwardVS with the parameter axis reversed
// (paper §3.3: members of I are ordered in descending order).
func backwardVS(vsin *bitset.Set, ps []int, n int, exists *bitset.Set, extended bool) *bitset.Set {
	stretch := bitset.New(n)
	for i, p := range ps {
		if !vsin.Contains(p) {
			continue
		}
		lo := 0
		if i > 0 {
			lo = ps[i-1] + 1
		}
		stretch.AddRange(lo, p+1)
	}
	if stretch.IsEmpty() {
		return stretch
	}
	pmax := ps[len(ps)-1]
	out := stretch
	if extended {
		if vsin.Contains(pmax) {
			out.AddRange(pmax+1, n)
		}
	} else {
		post := vsin.Clone()
		for t := 0; t <= pmax; t++ {
			if post.Contains(t) {
				post.Remove(t)
			}
		}
		out.UnionWith(post)
	}
	out.IntersectWith(exists)
	return out
}

// Range is one perspective interval [Lo, Hi) used by dynamic semantics:
// the structure at perspective Lo is imposed on every moment of the
// range. The engine organizes perspectives into ranges (paper §6.1:
// "forward semantics is implemented directly by organizing perspectives
// into ranges").
type Range struct {
	Lo, Hi int // parameter leaf ordinals, half-open
}

// ForwardRanges returns the intervals [pᵢ, pᵢ₊₁) for normalized
// perspectives, with the final interval closed by the parameter extent.
func ForwardRanges(param *dimension.Dimension, ps []int) ([]Range, error) {
	norm, err := NormalizePerspectives(param, ps)
	if err != nil {
		return nil, err
	}
	out := make([]Range, len(norm))
	for i, p := range norm {
		hi := param.NumLeaves()
		if i+1 < len(norm) {
			hi = norm[i+1]
		}
		out[i] = Range{Lo: p, Hi: hi}
	}
	return out, nil
}

// BackwardRanges returns the mirror intervals: for each perspective pᵢ
// the range (pᵢ₋₁, pᵢ] expressed half-open as [pᵢ₋₁+1, pᵢ+1).
func BackwardRanges(param *dimension.Dimension, ps []int) ([]Range, error) {
	norm, err := NormalizePerspectives(param, ps)
	if err != nil {
		return nil, err
	}
	out := make([]Range, len(norm))
	for i, p := range norm {
		lo := 0
		if i > 0 {
			lo = norm[i-1] + 1
		}
		out[i] = Range{Lo: lo, Hi: p + 1}
	}
	return out, nil
}
