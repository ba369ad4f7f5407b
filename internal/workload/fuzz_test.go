package workload

import (
	"bytes"
	"runtime"
	"testing"

	"whatifolap/internal/cube"
	"whatifolap/internal/paperdata"
)

// loadAllocBudget is the most LoadSchema may allocate for an input of
// n bytes: a fixed allowance for buffers and maps, plus a generous
// multiple of the input. A slice sized from a count the input merely
// claims (a 4 G validity-set length in a 600-byte stream) blows it.
func loadAllocBudget(n int) uint64 { return 1<<20 + 1024*uint64(n) }

// FuzzLoadSchema loads arbitrary bytes as a binary cube stream — the
// schema in every segment's meta that a restore decodes, and a dump
// that whatifd -load reads. The result is a clean error or a cube whose
// schema saves and loads again; never a panic, and never an allocation
// the input's length does not justify.
func FuzzLoadSchema(f *testing.F) {
	w, err := NewWorkforce(ConfigTiny())
	if err != nil {
		f.Fatal(err)
	}
	paper := paperdata.ChunkedWarehouse(nil)
	for _, seed := range []struct {
		c    *cube.Cube
		save func(*cube.Cube, *bytes.Buffer) error
	}{
		{paper, func(c *cube.Cube, b *bytes.Buffer) error { return SaveSchema(c, b) }},
		{w.Cube, func(c *cube.Cube, b *bytes.Buffer) error { return SaveSchema(c, b) }},
		{paper, func(c *cube.Cube, b *bytes.Buffer) error { return SaveBinary(c, b) }},
	} {
		var b bytes.Buffer
		if err := seed.save(seed.c, &b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := LoadSchema(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > loadAllocBudget(len(b)) {
			t.Fatalf("loading %d bytes allocated %d bytes (budget %d)", len(b), alloc, loadAllocBudget(len(b)))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := SaveSchema(c, &again); err != nil {
			t.Fatalf("a loaded cube does not save: %v", err)
		}
		if _, err := LoadSchema(&again); err != nil {
			t.Fatalf("a loaded cube's schema does not load again: %v", err)
		}
	})
}
