package cube

import (
	"fmt"
	"math"

	"whatifolap/internal/dimension"
)

// AggFunc identifies an aggregation function used to roll leaf cells up
// into non-leaf cells.
type AggFunc uint8

// Supported aggregation functions. Sum is the paper's default for
// hierarchy rollup (rule (5) in §2).
const (
	AggSum AggFunc = iota
	AggAvg
	AggMin
	AggMax
	AggCount
)

// String returns the function name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// Apply folds v into the accumulator (acc, n), where n counts non-null
// inputs so far.
func (f AggFunc) Apply(acc float64, n int, v float64) float64 {
	if n == 0 {
		if f == AggCount {
			return 1
		}
		return v
	}
	switch f {
	case AggSum, AggAvg:
		return acc + v
	case AggMin:
		return math.Min(acc, v)
	case AggMax:
		return math.Max(acc, v)
	case AggCount:
		return acc + 1
	}
	return acc
}

// Finish turns an accumulator over n non-null inputs into the cell
// value: Null when nothing was folded, the mean under avg.
func (f AggFunc) Finish(acc float64, n int) float64 {
	if n == 0 {
		return Null
	}
	if f == AggAvg {
		return acc / float64(n)
	}
	return acc
}

// ScopeCond restricts a rule to cells whose coordinate in dimension Dim
// is the named member or one of its descendants — the paper's
// "For Market = East, …" scoping.
type ScopeCond struct {
	Dim    string
	Member string
}

// Rule defines the value of cells whose coordinate in dimension Dim is
// the member named Target (at any hierarchy position), subject to
// optional scope conditions, via an expression.
type Rule struct {
	Dim    string // dimension of the target member, normally Measures
	Target string
	Scope  []ScopeCond
	Expr   Expr
}

// RuleSet is an ordered collection of rules plus per-measure aggregation
// overrides and a default rollup function.
type RuleSet struct {
	rules      []*Rule
	aggByName  map[string]AggFunc // per-target aggregation override
	defaultAgg AggFunc
}

// NewRuleSet returns a rule set with sum rollup and no formulas.
func NewRuleSet() *RuleSet {
	return &RuleSet{aggByName: make(map[string]AggFunc), defaultAgg: AggSum}
}

// AddFormula registers a formula rule. Example:
//
//	rs.AddFormula("Measures", "Margin", "Sales - COGS")
//	rs.AddFormula("Measures", "Margin", "0.93*Sales - COGS", ScopeCond{Dim: "Market", Member: "East"})
//
// Among applicable rules, the one with the most scope conditions wins;
// ties go to the later registration.
func (rs *RuleSet) AddFormula(dim, target, expr string, scope ...ScopeCond) error {
	e, err := ParseExpr(expr)
	if err != nil {
		return err
	}
	rs.rules = append(rs.rules, &Rule{Dim: dim, Target: target, Scope: scope, Expr: e})
	return nil
}

// MustAddFormula is AddFormula that panics on error.
func (rs *RuleSet) MustAddFormula(dim, target, expr string, scope ...ScopeCond) {
	if err := rs.AddFormula(dim, target, expr, scope...); err != nil {
		panic(err)
	}
}

// SetAgg overrides the rollup function for cells whose measure member has
// the given name.
func (rs *RuleSet) SetAgg(target string, f AggFunc) { rs.aggByName[target] = f }

// SetDefaultAgg sets the rollup function used when no override applies.
func (rs *RuleSet) SetDefaultAgg(f AggFunc) { rs.defaultAgg = f }

// Rules returns the formula rules in registration order.
func (rs *RuleSet) Rules() []*Rule { return rs.rules }

// FormulaDims returns the names of the dimensions the formula rules
// target or reference. Evaluating a cell replaces its coordinate in such
// a dimension by whatever member a formula names (Margin reads Sales and
// COGS) and leaves every other coordinate alone, so a cell's reads stay
// inside its own leaf descendants in every dimension but these.
func (rs *RuleSet) FormulaDims() map[string]bool {
	dims := make(map[string]bool)
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Unary:
			walk(x.X)
		case Binary:
			walk(x.L)
			walk(x.R)
		case Ref:
			if x.Dim != "" {
				dims[x.Dim] = true
			}
		}
	}
	for _, r := range rs.rules {
		dims[r.Dim] = true
		walk(r.Expr)
	}
	return dims
}

// findRule returns the most specific applicable formula rule for the
// cell, or nil.
func (rs *RuleSet) findRule(c *Cube, ids []dimension.MemberID) *Rule {
	var best *Rule
	for _, r := range rs.rules {
		di := c.DimIndex(r.Dim)
		if di < 0 || c.dims[di].Member(ids[di]).Name != r.Target {
			continue
		}
		ok := true
		for _, sc := range r.Scope {
			si := c.DimIndex(sc.Dim)
			if si < 0 {
				ok = false
				break
			}
			anc, err := c.dims[si].Lookup(sc.Member)
			if err != nil || !c.dims[si].IsDescendant(ids[si], anc) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if best == nil || len(r.Scope) >= len(best.Scope) {
			best = r
		}
	}
	return best
}

// maxEvalDepth bounds formula recursion so that cyclic rule definitions
// fail fast instead of overflowing the stack.
const maxEvalDepth = 64

// EvalCell computes the value of a cell per the paper's function
// evaluation semantics (§4.3): rule definitions are taken from defCube
// (its rule set and hierarchies), while cell values are read from
// dataCube. EvalCell(c, c, ids) evaluates the cube in place; the E
// operator's E(C¹, C²) passes the two cubes separately, which is how
// visual mode re-aggregates over the perspective cube.
//
// Resolution order: an applicable formula rule wins; otherwise a leaf
// cell returns its base value and a non-leaf cell rolls up its
// descendant leaf cells with the measure's aggregation function.
func (rs *RuleSet) EvalCell(defCube, dataCube *Cube, ids []dimension.MemberID) (float64, error) {
	return rs.evalCell(defCube, dataCube, ids, 0)
}

func (rs *RuleSet) evalCell(defCube, dataCube *Cube, ids []dimension.MemberID, depth int) (float64, error) {
	if depth > maxEvalDepth {
		return Null, fmt.Errorf("cube: rule recursion exceeds depth %d at cell %v (cyclic rules?)", maxEvalDepth, tupleString(defCube, ids))
	}
	// Materialized aggregates (Cube.MaterializeAggregates) take
	// precedence over recomputation, like a pre-aggregated storage
	// engine; they must be rebuilt after leaf updates.
	if !dataCube.IsLeafCell(ids) {
		if v := dataCube.Value(ids); !IsNull(v) {
			return v, nil
		}
	}
	if r := rs.findRule(defCube, ids); r != nil {
		return rs.evalExpr(defCube, dataCube, r, r.Expr, ids, depth)
	}
	if dataCube.IsLeafCell(ids) {
		return dataCube.Value(ids), nil
	}
	return rs.rollup(defCube, dataCube, ids, depth)
}

// AggFor returns the function that rolls the cell's leaf descendants
// up: the override of the cell's member in a measure dimension, else the
// default. Every roll-up decides it here — rollup per cell, the
// engine's compiled projection once per grid cell.
func (rs *RuleSet) AggFor(c *Cube, ids []dimension.MemberID) AggFunc {
	f := rs.defaultAgg
	if len(rs.aggByName) == 0 {
		return f
	}
	for i, id := range ids {
		if c.dims[i].Measure() {
			if of, ok := rs.aggByName[c.dims[i].Member(id).Name]; ok {
				f = of
			}
		}
	}
	return f
}

// FormulaReaches returns the target of a formula rule that defines the
// cell or may define one of its leaf descendants, or "" when none can:
// then the cell's value is its leaf descendants' stored values rolled up
// with AggFor, which is what a compiled projection computes. A rule
// reaches a leaf below the cell when its target names a member at or
// below the cell's coordinate in the rule's dimension; scope conditions
// are not consulted there, so the answer errs toward "reaches".
func (rs *RuleSet) FormulaReaches(c *Cube, ids []dimension.MemberID) string {
	if len(rs.rules) == 0 {
		return ""
	}
	if r := rs.findRule(c, ids); r != nil {
		return r.Target
	}
	for _, r := range rs.rules {
		di := c.DimIndex(r.Dim)
		if di < 0 {
			continue
		}
		d := c.dims[di]
		for _, o := range d.LeafDescendants(ids[di]) {
			if d.Leaf(o).Name == r.Target {
				return r.Target
			}
		}
	}
	return ""
}

// rollup aggregates the cell's descendant leaf cells. Null inputs are
// skipped; a cell with no non-null descendants is Null. Descendant leaf
// cells that are themselves rule-defined are evaluated recursively.
func (rs *RuleSet) rollup(defCube, dataCube *Cube, ids []dimension.MemberID, depth int) (float64, error) {
	f := rs.AggFor(defCube, ids)
	// Collect per-dimension leaf ordinal ranges.
	leafSets := make([][]int, len(ids))
	for i, id := range ids {
		m := dataCube.dims[i].Member(id)
		if m.LeafOrdinal >= 0 {
			leafSets[i] = []int{m.LeafOrdinal}
		} else {
			leafSets[i] = dataCube.dims[i].LeafDescendants(id)
			if len(leafSets[i]) == 0 {
				return Null, nil
			}
		}
	}
	acc, n := Null, 0
	addr := make([]int, len(ids))
	leafIDs := make([]dimension.MemberID, len(ids))
	var walk func(dim int) error
	walk = func(dim int) error {
		if dim == len(ids) {
			for i, o := range addr {
				leafIDs[i] = dataCube.dims[i].Leaf(o).ID
			}
			var v float64
			if r := rs.findRule(defCube, leafIDs); r != nil {
				var err error
				v, err = rs.evalExpr(defCube, dataCube, r, r.Expr, leafIDs, depth)
				if err != nil {
					return err
				}
			} else {
				v = dataCube.Leaf(addr)
			}
			if !IsNull(v) {
				acc = f.Apply(acc, n, v)
				n++
			}
			return nil
		}
		for _, o := range leafSets[dim] {
			addr[dim] = o
			if err := walk(dim + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return Null, err
	}
	return f.Finish(acc, n), nil
}

func (rs *RuleSet) evalExpr(defCube, dataCube *Cube, r *Rule, e Expr, ids []dimension.MemberID, depth int) (float64, error) {
	switch x := e.(type) {
	case Const:
		return x.V, nil
	case Unary:
		v, err := rs.evalExpr(defCube, dataCube, r, x.X, ids, depth)
		if err != nil || IsNull(v) {
			return Null, err
		}
		return -v, nil
	case Binary:
		l, err := rs.evalExpr(defCube, dataCube, r, x.L, ids, depth)
		if err != nil {
			return Null, err
		}
		rv, err := rs.evalExpr(defCube, dataCube, r, x.R, ids, depth)
		if err != nil {
			return Null, err
		}
		if IsNull(l) || IsNull(rv) {
			return Null, nil
		}
		switch x.Op {
		case '+':
			return l + rv, nil
		case '-':
			return l - rv, nil
		case '*':
			return l * rv, nil
		case '/':
			if rv == 0 {
				return Null, nil
			}
			return l / rv, nil
		}
		return Null, fmt.Errorf("cube: unknown operator %q", x.Op)
	case Ref:
		dimName := x.Dim
		if dimName == "" {
			dimName = r.Dim
		}
		di := defCube.DimIndex(dimName)
		if di < 0 {
			return Null, fmt.Errorf("cube: rule for %s references unknown dimension %q", r.Target, dimName)
		}
		id, err := defCube.dims[di].Lookup(x.Member)
		if err != nil {
			return Null, fmt.Errorf("cube: rule for %s: %v", r.Target, err)
		}
		sub := make([]dimension.MemberID, len(ids))
		copy(sub, ids)
		sub[di] = id
		return rs.evalCell(defCube, dataCube, sub, depth+1)
	}
	return Null, fmt.Errorf("cube: unknown expression node %T", e)
}

func tupleString(c *Cube, ids []dimension.MemberID) string {
	s := "("
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		p := c.dims[i].Path(id)
		if p == "" {
			p = c.dims[i].Name()
		}
		s += p
	}
	return s + ")"
}
