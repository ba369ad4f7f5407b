package chunk_test

import (
	"path/filepath"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// A representation sweep over a paged store leaves every converted
// chunk a clean copy of its tier chunk, so the pool can still evict it:
// after two full scans the resident bytes fit the budget again. Which
// chunks the attach leaves resident for the sweep depends on map order,
// so the pinned pass holds the whole cube resident while it sweeps and
// converts every chunk.
func TestSweepAfterPagingStaysInBudget(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		w, err := workload.NewWorkforce(workload.ConfigTiny())
		if err != nil {
			t.Fatal(err)
		}
		st := w.Cube.Store().(*chunk.Store)
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
		if n := st.ForceRunEncodeAll(); n == 0 || pinned && n != len(ids) {
			t.Fatalf("pinned=%v: the sweep converted %d of %d chunks", pinned, n, len(ids))
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
