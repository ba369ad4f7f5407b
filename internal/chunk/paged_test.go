package chunk_test

import (
	"path/filepath"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// A representation sweep over a paged store converts nothing, so every
// resident chunk stays a clean copy of its tier chunk and the pool can
// still evict it: after two full scans the resident bytes fit the budget.
// Which chunks the attach leaves resident depends on map order, so the
// pinned pass holds the whole cube resident while it sweeps. A resident
// clone of the cube run-encodes some chunks, so the refused forced sweep
// and the no-op Settle are not vacuous.
func TestSweepAfterPagingStaysInBudget(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		w, err := workload.NewWorkforce(workload.ConfigTiny())
		if err != nil {
			t.Fatal(err)
		}
		st := w.Cube.Store().(*chunk.Store)
		if n := st.Clone().(*chunk.Store).ForceRunEncodeAll(); n == 0 {
			t.Fatal("nothing to run-encode in the cube; the sweep is vacuous")
		}
		budget := st.MemBytes() / 8
		if err := segment.PageOut(st, filepath.Join(t.TempDir(), "wf.seg"), budget); err != nil {
			t.Fatal(err)
		}
		ids := st.ChunkIDs()
		if pinned {
			for _, id := range ids {
				st.Pin(id)
				st.ReadChunk(id)
			}
		}
		before := st.SpillStats()
		if n := st.Settle(); n != 0 {
			t.Fatalf("pinned=%v: Settle on a paged store converted %d of %d chunks", pinned, n, len(ids))
		}
		func() {
			defer func() {
				if r := recover(); r != "chunk: a paged store is read-only" {
					t.Fatalf("pinned=%v: ForceRunEncodeAll recovered %v, want the read-only panic", pinned, r)
				}
			}()
			st.ForceRunEncodeAll()
		}()
		if after := st.SpillStats(); after != before {
			t.Fatalf("pinned=%v: a sweep moved the pool: %+v -> %+v", pinned, before, after)
		}
		if pinned {
			for _, id := range ids {
				st.Unpin(id)
			}
		}
		for pass := 0; pass < 2; pass++ {
			for _, id := range ids {
				st.ReadChunk(id)
			}
		}
		if ps := st.SpillStats(); ps.ResidentBytes > budget || ps.Evictions == 0 {
			t.Fatalf("pinned=%v: after the sweep and two scans %d B resident against a %d B budget, %d evictions",
				pinned, ps.ResidentBytes, budget, ps.Evictions)
		}
	}
}
