package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"whatifolap/internal/chunk"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// persistedCatalog builds a catalog writing through a persister in dir.
func persistedCatalog(t *testing.T, dir string) (*Catalog, *Persister) {
	t.Helper()
	p, err := OpenPersister(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	c.SetPersister(p)
	return c, p
}

func TestPersisterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	orig := paperdata.ChunkedWarehouse(nil)
	if err := cat.Register("paper", orig); err != nil {
		t.Fatal(err)
	}
	// A publish makes version 2; both versions become durable.
	if _, err := cat.Publish("paper", 1, orig.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after flush", p.Pending())
	}

	// A fresh process: restore from the directory alone.
	cat2, p2 := persistedCatalog(t, dir)
	names, err := p2.Restore(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "paper" {
		t.Fatalf("restored %v", names)
	}
	snap, err := cat2.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Version != 2 {
		t.Fatalf("restored version %d, want 2", snap.Version)
	}
	if snap.Cube.NumCells() != orig.NumCells() {
		t.Fatalf("cells %d, want %d", snap.Cube.NumCells(), orig.NumCells())
	}
	// Every cell identical to the original, through the segment tier.
	orig.Store().NonNull(func(addr []int, v float64) bool {
		if got := snap.Cube.Leaf(addr); got != v {
			t.Fatalf("cell %v = %v, want %v", addr, got, v)
		}
		return true
	})
	// Restored cubes must not be re-persisted: still exactly 2 versions.
	if err := p2.Flush(); err != nil {
		t.Fatal(err)
	}
	man, _, err := segment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if vs := man.Versions("paper"); len(vs) != 2 {
		t.Fatalf("manifest versions = %+v", vs)
	}
}

// TestCommitOverRestoredCube is the one write path over a paged base: a
// scenario over a cube restored from its segment file reads the base
// through the buffer pool, and its commit publishes a resident v2 that
// is written back and restores with the edit and every other cell.
func TestCommitOverRestoredCube(t *testing.T) {
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	orig := paperdata.ChunkedWarehouse(nil)
	if err := cat.Register("paper", orig); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	cat2, p2 := persistedCatalog(t, dir)
	if _, err := p2.Restore(cat2); err != nil {
		t.Fatal(err)
	}
	v1, err := cat2.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Release()
	base, ok := v1.Cube.Store().(*chunk.Store)
	if !ok || !base.Pooled() {
		t.Fatalf("restored store is %T, pooled=%v; want a paged chunk store", v1.Cube.Store(), ok && base.Pooled())
	}
	srv := New(cat2, Config{ObsInterval: -1})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "raise"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{"Organization": "FTE/Lisa", "Time": "Jan", "Location": "NY", "Measures": "Salary"}, "value": 7777},
		},
	}), http.StatusOK, nil)
	var committed struct {
		Version int64 `json:"version"`
	}
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/commit", nil), http.StatusOK, &committed)
	if committed.Version != 2 {
		t.Fatalf("commit version = %d, want 2", committed.Version)
	}
	if err := p2.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := base.SpillStats(); st.Faults == 0 || st.Pinned != 0 {
		t.Fatalf("v1 pool after the commit: %+v, want faults and no pins", st)
	}
	if pinned := cat2.PoolStats().Pinned; pinned != 0 {
		t.Fatalf("%d chunks pinned after the commit", pinned)
	}

	cat3, p3 := persistedCatalog(t, dir)
	if _, err := p3.Restore(cat3); err != nil {
		t.Fatal(err)
	}
	v2, err := cat3.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if v2.Version != 2 {
		t.Fatalf("restored version %d, want 2", v2.Version)
	}
	edited := 0
	orig.Store().NonNull(func(addr []int, v float64) bool {
		if got := v2.Cube.Leaf(addr); got == 7777 && v != 7777 {
			edited++
		} else if got != v {
			t.Fatalf("cell %v = %v, want %v", addr, got, v)
		}
		return true
	})
	if edited != 1 || v2.Cube.NumCells() != orig.NumCells() {
		t.Fatalf("restored v2: %d edited cells, %d cells; want 1 and %d", edited, v2.Cube.NumCells(), orig.NumCells())
	}
}

func TestPersisterRestoreFallsBackOnCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	if err := cat.Register("paper", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Publish("paper", 1, paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	man, _, err := segment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2, ok := man.Latest("paper")
	if !ok || v2.Version != 2 {
		t.Fatalf("latest = %+v %v", v2, ok)
	}
	// Truncate the newest segment: restore must fall back to version 1.
	path := filepath.Join(dir, v2.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cat2, p2 := persistedCatalog(t, dir)
	if _, err := p2.Restore(cat2); err != nil {
		t.Fatal(err)
	}
	snap, err := cat2.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Version != 1 {
		t.Fatalf("restored version %d, want fallback to 1", snap.Version)
	}

	// Corrupt the remaining version too: restore now fails closed.
	v1 := man.Versions("paper")[0]
	if err := os.WriteFile(filepath.Join(dir, v1.File), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat3, p3 := persistedCatalog(t, dir)
	if _, err := p3.Restore(cat3); err == nil {
		t.Fatal("restore with every version corrupt should fail")
	}
}

func TestPersisterSkipsNonChunkCubes(t *testing.T) {
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	// The MemStore-backed warehouse has no segment encoding: registering
	// it must not enqueue a write-back.
	if err := cat.Register("mem", paperdata.Warehouse()); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	man, _, err := segment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Cubes) != 0 {
		t.Fatalf("manifest should be empty, got %+v", man.Cubes)
	}
}

// TestWritebackConcurrentPublishes exercises the write-back queue under
// concurrent catalog publishes across cubes (the -race subset for the
// persistence layer).
func TestWritebackConcurrentPublishes(t *testing.T) {
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	const cubes = 4
	for i := 0; i < cubes; i++ {
		if err := cat.Register(fmt.Sprintf("c%d", i), paperdata.ChunkedWarehouse(nil)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < cubes; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for v := 0; v < 3; v++ {
				next := paperdata.ChunkedWarehouse(nil)
				next.SetLeaf([]int{0, 0, 0, 0}, float64(v))
				if _, err := cat.Publish(name, 0, next); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("c%d", i))
	}
	// Sample the pending gauge concurrently with the publishes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if n := p.Pending(); n < 0 {
				t.Error("negative pending")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	man, _, err := segment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cubes; i++ {
		vs := man.Versions(fmt.Sprintf("c%d", i))
		if len(vs) != 4 {
			t.Fatalf("cube c%d has %d durable versions, want 4", i, len(vs))
		}
		if vs[len(vs)-1].Version != 4 {
			t.Fatalf("cube c%d newest = %+v", i, vs[len(vs)-1])
		}
	}
	// The final durable state round-trips.
	cat2, p2 := persistedCatalog(t, dir)
	if _, err := p2.Restore(cat2); err != nil {
		t.Fatal(err)
	}
	snap, err := cat2.Acquire("c0")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if got := snap.Cube.Leaf([]int{0, 0, 0, 0}); got != 2 {
		t.Fatalf("restored leaf = %v, want 2", got)
	}
}

// TestWritebackPublishedVersionsAreSettled: publication decides each
// chunk's representation once. The registered v1 and the committed v2
// are settled before they are served or written back — every chunk is
// run-encoded, and settling a copy converts nothing — and the restored
// v2 holds, chunk by chunk, the representation and bytes that were
// served.
func TestWritebackPublishedVersionsAreSettled(t *testing.T) {
	// The tiny validity-window workforce: flat months and
	// period-fastest chunks, so every chunk's value runs pay.
	cfg := workload.ConfigTiny()
	cfg.FlatMonths = true
	cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cat, p := persistedCatalog(t, dir)
	if err := cat.Register("vw", w.Cube); err != nil {
		t.Fatal(err)
	}
	checkSettled := func(label string, st *chunk.Store) {
		t.Helper()
		ids := st.ChunkIDs()
		if len(ids) == 0 {
			t.Fatalf("%s holds no chunks", label)
		}
		for _, id := range ids {
			c := st.PeekChunk(id)
			if c.Rep() != chunk.RunEncoded || c.Clone().Settle() {
				t.Fatalf("%s chunk %d is %v and not settled", label, id, c.Rep())
			}
		}
	}
	v1, err := cat.Acquire("vw")
	if err != nil {
		t.Fatal(err)
	}
	checkSettled("served v1", v1.Cube.Store().(*chunk.Store))
	v1.Release()

	srv := New(cat, Config{ObsInterval: -1})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "raise"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{"Department": "Emp00010", "Period": "Jan", "Account": "Acct000"}, "value": 42},
		},
	}), http.StatusOK, nil)
	var committed struct {
		Version int64 `json:"version"`
	}
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/commit", nil), http.StatusOK, &committed)
	if committed.Version != 2 {
		t.Fatalf("commit version = %d, want 2", committed.Version)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	served, err := cat.Acquire("vw")
	if err != nil {
		t.Fatal(err)
	}
	defer served.Release()
	sst := served.Cube.Store().(*chunk.Store)
	checkSettled("served v2", sst)

	cat2, p2 := persistedCatalog(t, dir)
	if _, err := p2.Restore(cat2); err != nil {
		t.Fatal(err)
	}
	restored, err := cat2.Acquire("vw")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Release()
	if restored.Version != 2 {
		t.Fatalf("restored version %d, want 2", restored.Version)
	}
	rst := restored.Cube.Store().(*chunk.Store)
	if got, want := rst.ChunkIDs(), sst.ChunkIDs(); !slices.Equal(got, want) {
		t.Fatalf("restored chunk ids %v, served %v", got, want)
	}
	for _, id := range sst.ChunkIDs() {
		a, b := sst.PeekChunk(id), rst.PeekChunk(id)
		if a.Rep() != b.Rep() || a.MemBytes() != b.MemBytes() {
			t.Fatalf("chunk %d: served %v %d B, restored %v %d B", id, a.Rep(), a.MemBytes(), b.Rep(), b.MemBytes())
		}
	}
}
