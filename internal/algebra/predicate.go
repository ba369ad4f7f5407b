// Package algebra implements the paper's what-if operators (§4):
// selection σ, relocate ρ, split S, and eval E, together with the
// predicate language of §4.1. The perspective operator Φ lives in
// package perspective; ApplyPerspectives and ApplyChanges compose the
// operators into the negative- and positive-scenario pipelines that
// Theorem 4.1 shows capture the extended-MDX what-if query class.
package algebra

import (
	"fmt"

	"whatifolap/internal/bitset"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// RelOp is a comparison operator θ ∈ {=, ≠, <, ≤, >, ≥} (paper §4.1).
type RelOp int

// Comparison operators.
const (
	EQ RelOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the operator's symbol.
func (op RelOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("RelOp(%d)", int(op))
}

func (op RelOp) apply(a, b float64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// Predicate decides whether a leaf member (instance) of the selection
// dimension stays active under σ. Predicates are evaluated against the
// input cube, so value predicates can inspect cell contents.
type Predicate interface {
	// Eval reports whether the leaf member id of dimension dimIdx in c
	// satisfies the predicate.
	Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error)
	String() string
}

// MemberIs matches a member instance whose path or base name equals Ref
// (paper: σ_{Product=TV}). A base-name match selects every instance of a
// varying member; a path match ("FTE/Joe") selects a single instance.
type MemberIs struct{ Ref string }

// Eval implements Predicate.
func (p MemberIs) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	d := c.Dim(dimIdx)
	return d.Member(id).Name == p.Ref || d.Path(id) == p.Ref, nil
}

func (p MemberIs) String() string { return fmt.Sprintf("%s = %s", "member", p.Ref) }

// DescendantOf matches leaf members classified under the referenced
// member (paper: σ_{Product descendant-of AudioVideo}).
type DescendantOf struct{ Ref string }

// Eval implements Predicate.
func (p DescendantOf) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	d := c.Dim(dimIdx)
	anc, err := d.Lookup(p.Ref)
	if err != nil {
		return false, fmt.Errorf("algebra: selection predicate: %w", err)
	}
	return d.IsDescendant(id, anc), nil
}

func (p DescendantOf) String() string { return fmt.Sprintf("descendant-of %s", p.Ref) }

// VSIntersects matches member instances whose validity set intersects
// the given parameter-leaf ordinals (paper: σ_{Product.VS ∩ {Feb,Apr} ≠ ∅}).
// The dimension must have a binding in the cube.
type VSIntersects struct{ ParamOrdinals []int }

// Eval implements Predicate.
func (p VSIntersects) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	d := c.Dim(dimIdx)
	b := c.BindingFor(d.Name())
	if b == nil {
		return false, fmt.Errorf("algebra: VS predicate on %s, which has no varying binding", d.Name())
	}
	probe := bitset.FromSlice(b.Param.NumLeaves(), p.ParamOrdinals)
	return b.ValiditySet(id).Intersects(probe), nil
}

func (p VSIntersects) String() string { return fmt.Sprintf("VS ∩ %v ≠ ∅", p.ParamOrdinals) }

// ValueCond matches member instances for which some cell satisfies
// "value θ Const" with the coordinates in Fix pinned to specific members
// and all unpinned dimensions ranged over their leaves (paper:
// σ_{Location=NY ∧ Time=Jan2000 ∧ Measure=Sales ∧ Value>1000}).
// Pinned non-leaf members are evaluated through the rule engine.
type ValueCond struct {
	Fix   map[string]string // dimension name -> member ref
	Op    RelOp
	Const float64
}

// Eval implements Predicate.
func (p ValueCond) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	ids := make([]dimension.MemberID, c.NumDims())
	free := []int{}
	for i := 0; i < c.NumDims(); i++ {
		d := c.Dim(i)
		if i == dimIdx {
			ids[i] = id
			continue
		}
		if ref, ok := p.Fix[d.Name()]; ok {
			m, err := d.Lookup(ref)
			if err != nil {
				return false, fmt.Errorf("algebra: value predicate: %w", err)
			}
			ids[i] = m
			continue
		}
		free = append(free, i)
	}
	// Existential search over the free dimensions' leaves.
	var walk func(k int) (bool, error)
	walk = func(k int) (bool, error) {
		if k == len(free) {
			v, err := c.Rules().EvalCell(c, c, ids)
			if err != nil {
				return false, err
			}
			return !cube.IsNull(v) && p.Op.apply(v, p.Const), nil
		}
		d := c.Dim(free[k])
		for o := 0; o < d.NumLeaves(); o++ {
			ids[free[k]] = d.Leaf(o).ID
			ok, err := walk(k + 1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	return walk(0)
}

func (p ValueCond) String() string {
	return fmt.Sprintf("∃ value %s %g under %v", p.Op, p.Const, p.Fix)
}

// And is predicate conjunction.
type And struct{ L, R Predicate }

// Eval implements Predicate.
func (p And) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	l, err := p.L.Eval(c, dimIdx, id)
	if err != nil || !l {
		return false, err
	}
	return p.R.Eval(c, dimIdx, id)
}

func (p And) String() string { return "(" + p.L.String() + " ∧ " + p.R.String() + ")" }

// Or is predicate disjunction.
type Or struct{ L, R Predicate }

// Eval implements Predicate.
func (p Or) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	l, err := p.L.Eval(c, dimIdx, id)
	if err != nil || l {
		return l, err
	}
	return p.R.Eval(c, dimIdx, id)
}

func (p Or) String() string { return "(" + p.L.String() + " ∨ " + p.R.String() + ")" }

// Not is predicate negation.
type Not struct{ X Predicate }

// Eval implements Predicate.
func (p Not) Eval(c *cube.Cube, dimIdx int, id dimension.MemberID) (bool, error) {
	v, err := p.X.Eval(c, dimIdx, id)
	return !v, err
}

func (p Not) String() string { return "¬" + p.X.String() }
