package server

import (
	"errors"
	"testing"

	"whatifolap/internal/paperdata"
)

func TestCatalogRegisterAcquireRelease(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("paper", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("paper", paperdata.ChunkedWarehouse(nil)); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if _, err := c.Acquire("nope"); err == nil {
		t.Fatal("Acquire of unknown cube succeeded")
	}

	snap, err := c.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.Cube == nil {
		t.Fatalf("snapshot = v%d, cube %v", snap.Version, snap.Cube)
	}
	infos := c.List()
	if len(infos) != 1 || infos[0].InFlight != 1 {
		t.Fatalf("List = %+v, want one entry with in_flight 1", infos)
	}
	snap.Release()
	snap.Release() // idempotent
	if got := c.List()[0].InFlight; got != 0 {
		t.Fatalf("in_flight after release = %d, want 0", got)
	}
}

func TestCatalogUpdateCopyOnWrite(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("paper", paperdata.ChunkedWarehouse(nil)); err != nil {
		t.Fatal(err)
	}
	old, err := c.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	addr := make([]int, old.Cube.NumDims())
	before := old.Cube.Leaf(addr)

	next := old.Cube.Clone()
	next.SetLeaf(addr, before+1000)
	v, err := c.Publish("paper", 1, next)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("Publish version = %d, want 2", v)
	}
	// The in-flight snapshot still reads the old value; a fresh acquire
	// sees the new version and the new value.
	if got := old.Cube.Leaf(addr); got != before {
		t.Fatalf("acquired snapshot changed under publish: %v -> %v", before, got)
	}
	fresh, err := c.Acquire("paper")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if fresh.Version != 2 {
		t.Fatalf("fresh version = %d, want 2", fresh.Version)
	}
	if got := fresh.Cube.Leaf(addr); got != before+1000 {
		t.Fatalf("fresh value = %v, want %v", got, before+1000)
	}

	// A publish against the superseded base conflicts and bumps nothing.
	if _, err := c.Publish("paper", 1, old.Cube.Clone()); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale publish = %v, want ErrVersionConflict", err)
	}
	if got := c.List()[0].Version; got != 2 {
		t.Fatalf("failed publish bumped the version to %d", got)
	}
}
