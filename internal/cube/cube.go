// Reviewed for hotpathfmt: fmt here builds errors and renders rule/
// member names at query-construction and materialization time, never
// inside the engine's scan loop.
//
//lint:coldfmt error construction and name rendering at plan/materialize time only
package cube

import (
	"fmt"
	"slices"
	"sync"

	"whatifolap/internal/dimension"
)

// Cube is an n-dimensional mapping from member tuples to values
// (paper §2). Leaf cells (every coordinate a leaf member) are base cells
// held in a Store; non-leaf cells are derived cells whose values are
// defined by rules, but may also be materialized (the paper's non-visual
// mode retains input-cube aggregates, which requires storing them).
type Cube struct {
	dims     []*dimension.Dimension
	byName   map[string]int
	bindings []*dimension.Binding
	store    Store
	derived  map[string]float64
	rules    *RuleSet
}

// New creates an empty cube over the given dimensions backed by a
// MemStore. Dimension names must be unique.
func New(dims ...*dimension.Dimension) *Cube {
	c := &Cube{
		dims:    dims,
		byName:  make(map[string]int, len(dims)),
		store:   NewMemStore(len(dims)),
		derived: make(map[string]float64),
		rules:   NewRuleSet(),
	}
	for i, d := range dims {
		if _, dup := c.byName[d.Name()]; dup {
			panic(fmt.Sprintf("cube: duplicate dimension %q", d.Name()))
		}
		c.byName[d.Name()] = i
	}
	return c
}

// NewWithStore creates a cube using the supplied Store, whose arity must
// match the number of dimensions.
func NewWithStore(store Store, dims ...*dimension.Dimension) *Cube {
	c := New(dims...)
	c.store = store
	return c
}

// NumDims returns the number of dimensions.
func (c *Cube) NumDims() int { return len(c.dims) }

// Dim returns the i-th dimension.
func (c *Cube) Dim(i int) *dimension.Dimension { return c.dims[i] }

// Dims returns the dimensions in schema order. The slice must not be
// modified.
func (c *Cube) Dims() []*dimension.Dimension { return c.dims }

// DimIndex returns the schema position of the named dimension, or -1.
func (c *Cube) DimIndex(name string) int {
	if i, ok := c.byName[name]; ok {
		return i
	}
	return -1
}

// DimByName returns the named dimension, or nil.
func (c *Cube) DimByName(name string) *dimension.Dimension {
	if i := c.DimIndex(name); i >= 0 {
		return c.dims[i]
	}
	return nil
}

// AddBinding registers a varying/parameter binding. Both dimensions must
// belong to the cube's schema.
func (c *Cube) AddBinding(b *dimension.Binding) error {
	if c.DimByName(b.Varying.Name()) != b.Varying {
		return fmt.Errorf("cube: binding varying dimension %q not in schema", b.Varying.Name())
	}
	if c.DimByName(b.Param.Name()) != b.Param {
		return fmt.Errorf("cube: binding parameter dimension %q not in schema", b.Param.Name())
	}
	if err := b.Validate(); err != nil {
		return err
	}
	c.bindings = append(c.bindings, b)
	return nil
}

// Bindings returns the cube's varying/parameter bindings.
func (c *Cube) Bindings() []*dimension.Binding { return c.bindings }

// BindingFor returns the binding whose varying dimension has the given
// name, or nil.
func (c *Cube) BindingFor(varyingName string) *dimension.Binding {
	for _, b := range c.bindings {
		if b.Varying.Name() == varyingName {
			return b
		}
	}
	return nil
}

// Store returns the cube's leaf-cell store.
func (c *Cube) Store() Store { return c.store }

// Rules returns the cube's rule set.
func (c *Cube) Rules() *RuleSet { return c.rules }

// SetRules replaces the cube's rule set.
func (c *Cube) SetRules(rs *RuleSet) { c.rules = rs }

// IsLeafCell reports whether every coordinate of the member tuple is a
// leaf member.
func (c *Cube) IsLeafCell(ids []dimension.MemberID) bool {
	for i, id := range ids {
		if c.dims[i].Member(id).LeafOrdinal < 0 {
			return false
		}
	}
	return true
}

// Ordinals converts an all-leaf member tuple to a leaf-ordinal address.
// The second result is false if any coordinate is non-leaf.
func (c *Cube) Ordinals(ids []dimension.MemberID) ([]int, bool) {
	addr, ok := c.appendOrdinals(make([]int, 0, len(ids)), ids)
	if !ok {
		return nil, false
	}
	return addr, true
}

// appendOrdinals appends the tuple's leaf ordinals to dst, stopping —
// and reporting false — at the first non-leaf coordinate.
func (c *Cube) appendOrdinals(dst []int, ids []dimension.MemberID) ([]int, bool) {
	for i, id := range ids {
		o := c.dims[i].Member(id).LeafOrdinal
		if o < 0 {
			return dst, false
		}
		dst = append(dst, o)
	}
	return dst, true
}

// MemberTuple converts a leaf-ordinal address back to member IDs.
func (c *Cube) MemberTuple(addr []int) []dimension.MemberID {
	ids := make([]dimension.MemberID, len(addr))
	for i, o := range addr {
		ids[i] = c.dims[i].Leaf(o).ID
	}
	return ids
}

func (c *Cube) checkTuple(ids []dimension.MemberID) {
	if len(ids) != len(c.dims) {
		panic(fmt.Sprintf("cube: tuple arity %d, schema arity %d", len(ids), len(c.dims)))
	}
}

func derivedKey(ids []dimension.MemberID) string {
	addr := make([]int, len(ids))
	for i, id := range ids {
		addr[i] = int(id)
	}
	return EncodeAddr(addr)
}

// addrPool recycles the leaf addresses Value reads with. The store is
// behind an interface, so an address built per call would escape to the
// heap — one object per leaf cell a query's projection reads.
var addrPool = sync.Pool{New: func() any { return new([]int) }}

// Value returns the stored value of the cell identified by the member
// tuple: the base value for leaf cells, the materialized derived value
// for non-leaf cells (Null if not materialized). It does not evaluate
// rules; see RuleSet.EvalCell for rule evaluation.
func (c *Cube) Value(ids []dimension.MemberID) float64 {
	c.checkTuple(ids)
	buf := addrPool.Get().(*[]int)
	addr, leaf := c.appendOrdinals((*buf)[:0], ids)
	v := Null
	if leaf {
		v = c.store.Get(addr)
	}
	*buf = addr
	addrPool.Put(buf)
	if leaf || len(c.derived) == 0 {
		return v
	}
	if v, ok := c.derived[derivedKey(ids)]; ok {
		return v
	}
	return Null
}

// SetValue stores a value at the cell identified by the member tuple.
// Leaf cells go to the Store; non-leaf cells are materialized in the
// derived-cell table. Setting Null clears the cell.
func (c *Cube) SetValue(ids []dimension.MemberID, v float64) {
	c.checkTuple(ids)
	if addr, ok := c.Ordinals(ids); ok {
		c.store.Set(addr, v)
		return
	}
	k := derivedKey(ids)
	if IsNull(v) {
		delete(c.derived, k)
		return
	}
	if c.derived == nil { // a Derive cube materializes none until asked
		c.derived = make(map[string]float64)
	}
	c.derived[k] = v
}

// SetLeaf stores a value at a leaf-ordinal address.
func (c *Cube) SetLeaf(addr []int, v float64) { c.store.Set(addr, v) }

// Leaf returns the value at a leaf-ordinal address.
func (c *Cube) Leaf(addr []int) float64 { return c.store.Get(addr) }

// DerivedCells calls fn for every materialized non-leaf cell. The ids
// slice is reused between calls.
func (c *Cube) DerivedCells(fn func(ids []dimension.MemberID, v float64) bool) {
	addr := make([]int, len(c.dims))
	ids := make([]dimension.MemberID, len(c.dims))
	for k, v := range c.derived {
		DecodeAddr(k, addr)
		for i, a := range addr {
			ids[i] = dimension.MemberID(a)
		}
		if !fn(ids, v) {
			return
		}
	}
}

// CloneSchema returns a cube sharing this cube's dimensions, bindings and
// rules but with an empty store of the same kind as the receiver's. It is
// the canonical way operators allocate their output.
func (c *Cube) CloneSchema() *Cube {
	out := New(c.dims...)
	out.bindings = append([]*dimension.Binding(nil), c.bindings...)
	out.rules = c.rules
	return out
}

// Derive returns a cube over store that shares c's rules, with dims and
// bindings attached as they are: a query's result, a scenario's layered
// snapshot — a view of c, whose dimensions may be clones of c's, or
// extend one of them. The bindings are not re-validated: every path that
// builds or edits a binding validates it once (AddBinding,
// algebra.PlanSplit, a scenario's structural batch), and re-checking
// every pair of instances' validity sets per query would only repeat
// that work. When dims carries c's dimension names in c's order the two
// cubes share c's name index too. It panics when a binding's dimensions
// are not dims' — a caller bug, like a tuple of the wrong arity.
func (c *Cube) Derive(store Store, dims []*dimension.Dimension, bindings []*dimension.Binding) *Cube {
	out := &Cube{dims: dims, byName: c.byName, bindings: bindings, store: store, rules: c.rules}
	if !slices.EqualFunc(dims, c.dims, func(a, b *dimension.Dimension) bool { return a.Name() == b.Name() }) {
		out.byName = make(map[string]int, len(dims))
		for i, d := range dims {
			out.byName[d.Name()] = i
		}
	}
	for _, b := range bindings {
		if out.DimByName(b.Varying.Name()) != b.Varying || out.DimByName(b.Param.Name()) != b.Param {
			panic(fmt.Sprintf("cube: binding %s/%s outside the derived cube's schema", b.Varying.Name(), b.Param.Name()))
		}
	}
	return out
}

// Clone returns a deep copy of cell data sharing dimensions, bindings and
// rules (which operators treat as immutable unless they clone them
// explicitly, e.g. split).
func (c *Cube) Clone() *Cube {
	out := c.CloneSchema()
	out.store = c.store.Clone()
	for k, v := range c.derived {
		out.derived[k] = v
	}
	return out
}

// NumCells returns the number of present leaf cells.
func (c *Cube) NumCells() int { return c.store.Len() }
