package cube

import (
	"testing"

	"whatifolap/internal/dimension"
)

// constStore answers every read with one value and allocates nothing,
// so that what Value itself allocates is all a test measures.
type constStore struct{ Store }

func (constStore) Get(addr []int) float64 { return float64(len(addr)) }

// TestValueAllocatesNothing pins the read a query's projection makes
// for every leaf cell of its grid: the leaf address Value hands the
// store is recycled, not built per call.
func TestValueAllocatesNothing(t *testing.T) {
	dims := make([]*dimension.Dimension, 7)
	ids := make([]dimension.MemberID, len(dims))
	for i := range dims {
		dims[i] = dimension.New(string(rune('A'+i)), false)
		ids[i] = dims[i].MustAdd("", "leaf")
	}
	c := NewWithStore(constStore{}, dims...)
	if got := c.Value(ids); got != 7 {
		t.Fatalf("Value = %v, want the store's answer", got)
	}
	if raceEnabled {
		return // sync.Pool sheds buffers at random under the race detector
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Value(ids) }); allocs != 0 {
		t.Fatalf("a leaf read allocates %.0f times, want 0", allocs)
	}
	// A non-leaf read of a cube that materialized no aggregate has no
	// derived table to look in.
	root := make([]dimension.MemberID, len(dims))
	for i, d := range dims {
		root[i] = d.Root()
	}
	if got := c.Value(root); !IsNull(got) || c.NumAggregates() != 0 {
		t.Fatalf("root Value = %v with %d aggregates, want Null", got, c.NumAggregates())
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Value(root) }); allocs != 0 {
		t.Fatalf("a non-leaf read allocates %.0f times, want 0", allocs)
	}
}
