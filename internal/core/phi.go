package core

import (
	"fmt"
	"slices"
	"sync"

	"whatifolap/internal/bitset"
	"whatifolap/internal/dimension"
	"whatifolap/internal/perspective"
)

// phiMemoCap bounds the hypotheticals one binding's planIndex keeps: a
// new one evicts the least recently used, so a client sending distinct
// perspective sets cannot grow the heap.
const phiMemoCap = 64

// planIndex is what perspective planning reads from a published binding,
// by leaf ordinal, so that no query looks a member up by name. It is
// built on a binding's first perspective plan and kept with the binding
// (Binding.SetDerived): it dies with the binding, and an edit (Put)
// drops it. It holds
//   - the base member of every varying leaf, and each member's instances;
//   - the members Φ can move: all but Φ's fixed points
//     (perspective.FixedPoint), which map to themselves under every
//     semantics and perspective set — their cells are base rows, so
//     nothing below holds them;
//   - per movable member and parameter leaf t, the source: the instance
//     valid at t (Binding.InstanceAt's d_t);
//   - a memo of Φ's destinations per hypothetical — a semantics and a
//     normalized perspective set — filled on first use by one
//     perspective.ApplyMembers call over every movable member, unmasked;
//     each query copies its scope's rows into its own RelocTable under its
//     footprint.
//
// Every slice is read-only once built; mu guards memo alone.
type planIndex struct {
	varying      *dimension.Dimension
	nMembers, nT int
	member       []int32 // member[o]: the base member of varying leaf o
	instAt       []int32 // member m's instance leaves: insts[instAt[m]:instAt[m+1]]
	insts        []int32 // leaf ordinals, in Dimension.Instances order
	slot         []int32 // slot[m]: m's rank among the movable members, -1 for a fixed point
	movable      []int32 // the movable members, by slot
	src          []int32 // src[k*nT+t]: the source leaf of movable member k at t, -1 for none
	mu           sync.Mutex
	memo         []*phiRows // most recently used first
}

// phiRows is one hypothetical's memo entry: dst[k*nT+t] is the leaf
// where Φ puts movable member k's cells of parameter leaf t, -1 where
// they vanish.
type phiRows struct {
	sem perspective.Semantics
	key []uint64 // the perspective set's bitset words
	dst []int32
}

// planIndex returns the engine binding's index, building it when the
// binding holds none or one made before its dimensions grew.
func (e *Engine) planIndex() *planIndex {
	b := e.binding
	if x, _ := b.Derived().(*planIndex); x != nil && x.fits(b) {
		return x
	}
	x := newPlanIndex(b)
	b.SetDerived(x)
	return x
}

// fits reports whether x was built over b's dimensions as they stand.
func (x *planIndex) fits(b *dimension.Binding) bool {
	return x.varying == b.Varying && x.nMembers == b.Varying.NumMembers() && x.nT == b.Param.NumLeaves()
}

// newPlanIndex builds b's index, its memo empty. Members are numbered in
// the order of their first leaf.
func newPlanIndex(b *dimension.Binding) *planIndex {
	d := b.Varying
	n, nT := d.NumLeaves(), b.Param.NumLeaves()
	x := &planIndex{varying: d, nMembers: d.NumMembers(), nT: nT, member: make([]int32, n)}
	for o := range x.member {
		x.member[o] = -1
	}
	for o := 0; o < n; o++ {
		if x.member[o] >= 0 {
			continue
		}
		m := int32(len(x.instAt))
		name := d.Leaf(o).Name
		x.instAt = append(x.instAt, int32(len(x.insts)))
		for _, inst := range d.Instances(name) {
			if lo := d.Member(inst).LeafOrdinal; lo >= 0 {
				x.member[lo] = m
				x.insts = append(x.insts, int32(lo))
			}
		}
		slot := int32(-1)
		if !perspective.FixedPoint(b, name) {
			slot = int32(len(x.movable))
			x.movable = append(x.movable, m)
		}
		x.slot = append(x.slot, slot)
	}
	x.instAt = append(x.instAt, int32(len(x.insts)))
	x.src = make([]int32, len(x.movable)*nT)
	var valid []*bitset.Set
	for k, m := range x.movable {
		valid = valid[:0]
		for _, o := range x.instances(m) {
			vs, _ := b.Explicit(d.Leaf(int(o)).ID) // nil: valid everywhere
			valid = append(valid, vs)
		}
		firstHolding(x.src[k*nT:(k+1)*nT], x.instances(m), valid)
	}
	return x
}

// instances returns member m's instance leaves.
func (x *planIndex) instances(m int32) []int32 { return x.insts[x.instAt[m]:x.instAt[m+1]] }

// firstHolding sets out[t], for every parameter leaf t, to the leaf of
// the first instance whose set holds t — a nil set holds every leaf —
// or to -1 when none does.
func firstHolding(out, insts []int32, sets []*bitset.Set) {
	for t := range out {
		out[t] = -1
		for i, vs := range sets {
			if vs == nil || vs.Contains(t) {
				out[t] = insts[i]
				break
			}
		}
	}
}

// scopeOf returns the leaf ordinals of every instance of the named
// members, the scope PerspectiveQuery.Members names; an unknown name is
// an error.
func (x *planIndex) scopeOf(d *dimension.Dimension, names []string) (*bitset.Set, error) {
	scope := bitset.New(len(x.member))
	for _, name := range names {
		insts := d.Instances(name)
		if len(insts) == 0 {
			return nil, fmt.Errorf("perspective: dimension %s has no member %q", d.Name(), name)
		}
		for _, inst := range insts {
			if o := d.Member(inst).LeafOrdinal; o >= 0 {
				scope.Add(o)
			}
		}
	}
	return scope, nil
}

// rows returns the memo entry of hypothetical (sem, ps) and whether it
// was there already, evaluating Φ on a miss. A warm lookup allocates
// nothing: its key is the perspective set's bitset words, built on the
// stack. An invalid perspective set or semantics is an error, never an
// entry.
func (x *planIndex) rows(b *dimension.Binding, sem perspective.Semantics, ps []int) (*phiRows, bool, error) {
	var buf [4]uint64
	key := buf[:0]
	if w := (x.nT + 63) / 64; w <= len(buf) {
		key = buf[:w]
	} else {
		key = make([]uint64, w)
	}
	for _, p := range ps {
		if p < 0 || p >= x.nT {
			key = nil
			break
		}
		key[p>>6] |= 1 << (p & 63)
	}
	if len(ps) == 0 || key == nil {
		_, err := perspective.NormalizePerspectives(b.Param, ps)
		return nil, false, err
	}
	if r := x.lookup(sem, key, nil); r != nil {
		return r, true, nil
	}
	r, err := x.apply(b, sem, ps)
	if err != nil {
		return nil, false, err
	}
	r.key = slices.Clone(key)
	return x.lookup(sem, key, r), false, nil
}

// lookup returns the entry of (sem, key), made the most recently used.
// On a miss it inserts add, evicting the least recently used entry past
// phiMemoCap, and returns it (nil for a nil add). A concurrent miss may
// have inserted the same hypothetical meanwhile: its entry is returned.
func (x *planIndex) lookup(sem perspective.Semantics, key []uint64, add *phiRows) *phiRows {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, r := range x.memo {
		if r.sem == sem && slices.Equal(r.key, key) {
			copy(x.memo[1:i+1], x.memo[:i])
			x.memo[0] = r
			return r
		}
	}
	if add == nil {
		return nil
	}
	if len(x.memo) == phiMemoCap {
		x.memo = x.memo[:phiMemoCap-1]
	}
	x.memo = slices.Insert(x.memo, 0, add)
	return add
}

// apply evaluates Φ over every movable member in one
// perspective.ApplyMembers call, which also checks the perspective set
// and the semantics, and records each destination: the instance whose
// output validity set holds the leaf.
func (x *planIndex) apply(b *dimension.Binding, sem perspective.Semantics, ps []int) (*phiRows, error) {
	d := b.Varying
	names := make([]string, len(x.movable))
	for k, m := range x.movable {
		names[k] = d.Leaf(int(x.instances(m)[0])).Name
	}
	res, err := perspective.ApplyMembers(sem, b, ps, names)
	if err != nil {
		return nil, err
	}
	r := &phiRows{sem: sem, dst: make([]int32, len(x.src))}
	var out []*bitset.Set
	for k, m := range x.movable {
		out = out[:0]
		for _, o := range x.instances(m) {
			out = append(out, res.VSOut[d.Leaf(int(o)).ID]) // never nil
		}
		firstHolding(r.dst[k*x.nT:(k+1)*x.nT], x.instances(m), out)
	}
	return r, nil
}
