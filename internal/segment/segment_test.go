package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"whatifolap/internal/chunk"
)

// testStore builds a 16-chunk store with deterministic values.
func testStore(t *testing.T) *chunk.Store {
	t.Helper()
	g := chunk.MustGeometry([]int{64}, []int{4})
	s := chunk.NewStore(g)
	for i := 0; i < 64; i += 2 { // half the cells, so chunks are sparse
		s.Set([]int{i}, float64(i)*1.5)
	}
	return s
}

func writeTestSegment(t *testing.T, path string, meta []byte) *chunk.Store {
	t.Helper()
	s := testStore(t)
	err := Create(path, s.Geometry().ChunkCap(), meta, s.ChunkIDs(), func(id int) *chunk.Chunk {
		return s.PeekChunk(id)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "cube-v000001.seg")
		meta := []byte("schema-blob")
		src := writeTestSegment(t, path, meta)

		sf, err := Open(path, OpenOptions{Mmap: mmap, VerifyChunks: true})
		if err != nil {
			t.Fatal(err)
		}
		if string(sf.Meta()) != "schema-blob" {
			t.Fatalf("meta = %q", sf.Meta())
		}
		if sf.ChunkCap() != 4 || len(sf.IDs()) != 16 {
			t.Fatalf("cap=%d slots=%d", sf.ChunkCap(), len(sf.IDs()))
		}

		// Attach as the tier of an empty store: every cell identical.
		dst := chunk.NewStore(src.Geometry())
		if err := dst.AttachTier(sf, 100); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != src.Len() || dst.NumChunks() != src.NumChunks() {
			t.Fatalf("shape: Len %d/%d NumChunks %d/%d", dst.Len(), src.Len(), dst.NumChunks(), src.NumChunks())
		}
		for i := 0; i < 64; i++ {
			a, b := src.Get([]int{i}), dst.Get([]int{i})
			if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
				t.Fatalf("mmap=%v cell %d: src %v dst %v", mmap, i, a, b)
			}
		}
		mustFault(t, dst)
		if err := dst.CloseSpill(); err != nil {
			t.Fatal(err)
		}
	}
}

// mustFault reads chunks until one faults through the segment tier.
func mustFault(t *testing.T, s *chunk.Store) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, id := range s.ChunkIDs() {
			if _, info := s.ReadChunkInfo(id); info.Faulted {
				return
			}
		}
	}
	t.Fatal("no read faulted through the tier")
}

func TestSegmentBadChecksumFailsClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cube-v000001.seg")
	writeTestSegment(t, path, []byte("m"))

	// Flip one byte in the first chunk slot (page 2: header, meta, then
	// slots — meta is tiny so slots start at page 2).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[2*PageSize+1] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	// Up-front verification refuses the segment outright.
	if _, err := Open(path, OpenOptions{VerifyChunks: true}); err == nil {
		t.Fatal("VerifyChunks open of corrupt segment should fail")
	}
	// Lazy open succeeds (header/index intact) but the corrupt slot
	// errors on read instead of serving wrong cells.
	sf, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	var sawErr bool
	for _, id := range sf.IDs() {
		if _, _, err := sf.ReadChunkAt(id); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("corrupt slot read should error")
	}

	// Header corruption: refuse immediately.
	corrupt2 := append([]byte(nil), raw...)
	corrupt2[20] ^= 0x01
	if err := os.WriteFile(path, corrupt2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{}); err == nil {
		t.Fatal("header corruption should fail open")
	}

	// Truncation: refuse immediately.
	if err := os.WriteFile(path, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{}); err == nil {
		t.Fatal("truncated segment should fail open")
	}
}

func TestSegmentCreateAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c-v000001.seg")
	writeTestSegment(t, path, nil)
	// No temp droppings after a successful create.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// Create into a missing directory fails without touching path.
	err := Create(filepath.Join(dir, "nope", "x.seg"), 4, nil, nil, func(int) *chunk.Chunk { return nil })
	if err == nil {
		t.Fatal("create in missing dir should fail")
	}
}

func TestSegmentCloneTierRefcount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c-v000001.seg")
	src := writeTestSegment(t, path, nil)

	sf, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := chunk.NewStore(src.Geometry())
	if err := a.AttachTier(sf, 100); err != nil {
		t.Fatal(err)
	}
	b := a.Clone().(*chunk.Store)
	if !b.Pooled() {
		t.Fatal("clone of segment-backed store should stay pooled")
	}
	// Closing the original keeps the clone readable (shared refcount).
	if err := a.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := src.Get([]int{i})
		got := b.Get([]int{i})
		if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && want != got) {
			t.Fatalf("cell %d after original closed: %v vs %v", i, got, want)
		}
	}
	if err := b.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	// The file is really closed now: a fresh read errors.
	if _, _, err := sf.ReadChunkAt(0); err == nil {
		t.Fatal("read after final close should fail")
	}
}

func TestManifestCommitAndLoad(t *testing.T) {
	dir := t.TempDir()

	// Empty dir: empty manifest, not recovered.
	m, rec, err := LoadManifest(dir)
	if err != nil || rec || len(m.Cubes) != 0 {
		t.Fatalf("fresh load: m=%+v rec=%v err=%v", m, rec, err)
	}

	m.Add("wf", CubeVersion{Version: 1, File: "wf-v000001.seg", Cells: 10})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}
	m.Add("wf", CubeVersion{Version: 2, File: "wf-v000002.seg", Cells: 12})
	m.Add("paper", CubeVersion{Version: 1, File: "paper-v000001.seg", Cells: 5})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}

	got, rec, err := LoadManifest(dir)
	if err != nil || rec {
		t.Fatalf("load: rec=%v err=%v", rec, err)
	}
	if lv, ok := got.Latest("wf"); !ok || lv.Version != 2 || lv.File != "wf-v000002.seg" {
		t.Fatalf("Latest(wf) = %+v %v", lv, ok)
	}
	if names := got.Names(); len(names) != 2 || names[0] != "paper" || names[1] != "wf" {
		t.Fatalf("Names = %v", names)
	}
	if vs := got.Versions("wf"); len(vs) != 2 || vs[0].Version != 1 || vs[1].Version != 2 {
		t.Fatalf("Versions(wf) = %+v", vs)
	}

	// Re-adding a version replaces in place.
	got.Add("wf", CubeVersion{Version: 2, File: "wf-v000002b.seg", Cells: 13})
	if vs := got.Versions("wf"); len(vs) != 2 || vs[1].File != "wf-v000002b.seg" {
		t.Fatalf("replace: %+v", vs)
	}
}

func TestManifestTornFailsClosed(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest()
	m.Add("wf", CubeVersion{Version: 1, File: "wf-v000001.seg", Cells: 10})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}
	m.Add("wf", CubeVersion{Version: 2, File: "wf-v000002.seg", Cells: 12})
	if err := m.Commit(dir); err != nil {
		t.Fatal(err)
	}

	live := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}

	// Torn write: truncated live manifest recovers to the previous one
	// (version 1), refusing the half-committed version 2.
	if err := os.WriteFile(live, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, rec, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec {
		t.Fatal("torn manifest should report recovered")
	}
	if lv, ok := got.Latest("wf"); !ok || lv.Version != 1 {
		t.Fatalf("recovered Latest = %+v %v", lv, ok)
	}

	// Crash between the two Commit renames: live missing, prev holds
	// the old manifest.
	if err := os.Remove(live); err != nil {
		t.Fatal(err)
	}
	got, rec, err = LoadManifest(dir)
	if err != nil || !rec {
		t.Fatalf("prev-only load: rec=%v err=%v", rec, err)
	}
	if lv, ok := got.Latest("wf"); !ok || lv.Version != 1 {
		t.Fatalf("prev-only Latest = %+v %v", lv, ok)
	}

	// Both unusable: hard error, never a guessed catalog.
	if err := os.WriteFile(live, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName+".prev"), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("both-corrupt load should fail")
	}

	// Foreign format version: rejected.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, ManifestName), []byte(`{"format_version": 99, "cubes": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir2); err == nil {
		t.Fatal("future format version should fail")
	}

	// Path traversal in a segment file name: rejected.
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, ManifestName),
		[]byte(`{"format_version": 1, "cubes": {"x": [{"version": 1, "file": "../evil.seg", "cells": 1}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir3); err == nil {
		t.Fatal("relative-path segment file should fail validation")
	}
}

// TestSegmentV1MagicAccepted pins backward compatibility: a file
// stamped with the v01 magic (pre run-record format) still opens. Run
// records are a new record kind inside the unchanged container layout,
// so the only format delta v02 declares is codec capability — old files
// contain only pair records, which the codec still decodes.
func TestSegmentV1MagicAccepted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cube-v000001.seg")
	src := writeTestSegment(t, path, []byte("m"))

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(b[:8], MagicV1)
	binary.LittleEndian.PutUint32(b[72:76], crc32.ChecksumIEEE(b[:headerLen-4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sf, err := Open(path, OpenOptions{VerifyChunks: true})
	if err != nil {
		t.Fatalf("v01-stamped segment rejected: %v", err)
	}
	defer sf.Close()
	for _, id := range src.ChunkIDs() {
		c, _, err := sf.ReadChunkAt(id)
		if err != nil {
			t.Fatalf("chunk %d: %v", id, err)
		}
		want := src.PeekChunk(id)
		if c.Len() != want.Len() {
			t.Fatalf("chunk %d: %d cells, want %d", id, c.Len(), want.Len())
		}
	}
}

// TestSegmentRunEncodedRoundTrip writes a segment from a run-encoded
// store and checks that tier faults come back still run-encoded (the
// run record decodes straight to the compressed representation — no
// dense detour) with every cell intact.
func TestSegmentRunEncodedRoundTrip(t *testing.T) {
	g := chunk.MustGeometry([]int{64}, []int{8})
	src := chunk.NewStore(g)
	for i := 0; i < 48; i++ { // long constant runs per chunk
		src.Set([]int{i}, float64(i/8+1))
	}
	if n := src.ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "cube-v000001.seg")
	err := Create(path, g.ChunkCap(), []byte("m"), src.ChunkIDs(), func(id int) *chunk.Chunk {
		return src.PeekChunk(id)
	})
	if err != nil {
		t.Fatal(err)
	}

	sf, err := Open(path, OpenOptions{VerifyChunks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, id := range src.ChunkIDs() {
		c, _, err := sf.ReadChunkAt(id)
		if err != nil {
			t.Fatalf("chunk %d: %v", id, err)
		}
		if src.PeekChunk(id).Rep() == chunk.RunEncoded && c.Rep() != chunk.RunEncoded {
			t.Fatalf("chunk %d faulted back as %v, want RunEncoded", id, c.Rep())
		}
	}

	dst := chunk.NewStore(g)
	if err := dst.AttachTier(sf, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, b := src.Get([]int{i}), dst.Get([]int{i})
		if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("cell %d: src %v dst %v", i, a, b)
		}
	}
}

// fixtureStore builds six chunks of capacity 16, one per record shape:
// full, sparse at exactly a quarter full, dense one cell past it, two
// value runs (run-encoded when runs is set), one cell, empty.
func fixtureStore(runs bool) *chunk.Store {
	g := chunk.MustGeometry([]int{96}, []int{16})
	s := chunk.NewStore(g)
	vals := []float64{1.5, math.Copysign(0, -1), 0, -2.25, 1e300, 5e-324, math.Inf(1), math.Inf(-1), 7, 8, 9, 10, 11, 12, 13, 14}
	for i := 0; i < 16; i++ {
		s.Set([]int{i}, vals[i])
	}
	for _, o := range []int{1, 6, 7, 15} {
		s.Set([]int{16 + o}, float64(o)+0.5)
	}
	for _, o := range []int{0, 3, 4, 9, 15} {
		s.Set([]int{32 + o}, -float64(o)-0.25)
	}
	for o := 2; o < 10; o++ {
		s.Set([]int{48 + o}, 3.5)
	}
	s.Set([]int{48 + 12}, math.Copysign(0, -1))
	s.Set([]int{48 + 13}, math.Copysign(0, -1))
	s.Set([]int{64 + 11}, 42)
	if runs {
		s.PeekChunk(3).ForceRuns()
	}
	return s
}

// describeChunk renders what a read of chunk id returned, one line in
// testdata/parent.golden's format.
func describeChunk(file string, id int, c *chunk.Chunk) string {
	if c == nil {
		return fmt.Sprintf("%s %d absent", file, id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d rep=%d len=%d mem=%d", file, id, c.Rep(), c.Len(), c.MemBytes())
	c.ForEach(func(off int, v float64) bool {
		fmt.Fprintf(&b, " %d:%016x", off, math.Float64bits(v))
		return true
	})
	return b.String()
}

// TestSegmentReadsParentFixture opens segment files written before the
// record codec was rewritten — testdata/parent-v02.seg (pair and run
// records) and parent-v01.seg (the v01 magic, pair records only), both
// Create(fixtureStore) at commit 8686156 — and checks every chunk reads
// back as that commit read it (parent.golden: representation, Len,
// MemBytes and each cell's bits), by pread and by mmap. Create at this
// commit must also still write the v02 file byte for byte.
func TestSegmentReadsParentFixture(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	var got []string
	for _, file := range []string{"parent-v02.seg", "parent-v01.seg"} {
		for _, mmap := range []bool{false, true} {
			sf, err := Open(filepath.Join("testdata", file), OpenOptions{Mmap: mmap, VerifyChunks: true})
			if err != nil {
				t.Fatalf("%s mmap=%v: %v", file, mmap, err)
			}
			var lines []string
			for id := 0; id < 6; id++ {
				c, _, err := sf.ReadChunkAt(id)
				if err != nil {
					t.Fatalf("%s mmap=%v chunk %d: %v", file, mmap, id, err)
				}
				lines = append(lines, describeChunk(file, id, c))
			}
			sf.Close()
			if !mmap {
				got = append(got, lines...)
			} else if tail := got[len(got)-len(lines):]; !slices.Equal(tail, lines) {
				t.Fatalf("%s: mmap read differs from pread:\n%s\nvs\n%s", file, strings.Join(lines, "\n"), strings.Join(tail, "\n"))
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fixture reads differ from the parent's:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	path := filepath.Join(t.TempDir(), "again.seg")
	s := fixtureStore(true)
	if err := Create(path, 16, []byte("fixture"), s.ChunkIDs(), s.PeekChunk); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-v02.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, parent) {
		t.Fatal("Create no longer writes the bytes the parent commit wrote for the same store")
	}
}

// restampChunkCap rewrites a segment's header with another chunk
// capacity and a matching header CRC — what a hostile or damaged file
// that still passes the header check looks like.
func restampChunkCap(t *testing.T, path string, chunkCap uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[12:16], chunkCap)
	binary.LittleEndian.PutUint32(b[72:76], crc32.ChecksumIEEE(b[:headerLen-4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentHostileChunkCapMeetsShortSlot: the header's chunk capacity
// is outside every slot's CRC, so the decoder must never size memory
// from it alone. A huge capacity over a one-cell slot decodes to a
// one-cell sparse chunk (a dense array would be 8 GiB); a capacity
// smaller than the slot's offsets is reported as corrupt.
func TestSegmentHostileChunkCapMeetsShortSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube-v000001.seg")
	s := fixtureStore(true)
	if err := Create(path, 16, nil, s.ChunkIDs(), s.PeekChunk); err != nil {
		t.Fatal(err)
	}

	restampChunkCap(t, path, 1<<30)
	sf, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 4} { // the full chunk and the one-cell chunk
		c, _, err := sf.ReadChunkAt(id)
		if err != nil {
			t.Fatalf("chunk %d at capacity 1<<30: %v", id, err)
		}
		if slot := int(sf.slots[id].len); c.Rep() != chunk.Sparse || c.MemBytes() > slot {
			t.Fatalf("chunk %d at capacity 1<<30: %v of %d bytes from a %d-byte slot", id, c.Rep(), c.MemBytes(), slot)
		}
	}
	sf.Close()

	restampChunkCap(t, path, 8)
	sf, err = Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, id := range []int{0, 3, 4} { // pair, run and one-cell records, all reaching past offset 8
		if _, _, err := sf.ReadChunkAt(id); err == nil || !strings.Contains(err.Error(), "beyond capacity 8") {
			t.Fatalf("chunk %d at capacity 8: error %v, want one naming the capacity", id, err)
		}
	}
}

// TestSegmentFaultAllocs pins a steady-state fault's allocations to the
// chunk it returns — the chunk and its dense array, or its two sparse
// slices — on both read paths: the pread buffer is recycled, the mmap
// path has none.
func TestSegmentFaultAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube-v000001.seg")
	s := fixtureStore(false)
	if err := Create(path, 16, nil, s.ChunkIDs(), s.PeekChunk); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		sf, err := Open(path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range map[int]float64{0: 2, 1: 3} { // dense, sparse
			got := testing.AllocsPerRun(100, func() {
				if _, _, err := sf.ReadChunkAt(id); err != nil {
					t.Fatal(err)
				}
			})
			if got > want {
				t.Errorf("mmap=%v chunk %d: %v allocations per fault, want <= %v", mmap, id, got, want)
			}
		}
		sf.Close()
	}
}

// TestSegmentConcurrentFaultIns churns a segment-backed store that
// holds about two chunks from eight goroutines, by pread (every fault
// borrows and returns the shared record buffer) and by mmap. Run under
// -race by verify.sh: a chunk still aliasing a recycled buffer would
// show as a race or a wrong cell.
func TestSegmentConcurrentFaultIns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube-v000001.seg")
	src := fixtureStore(true)
	if err := Create(path, 16, nil, src.ChunkIDs(), src.PeekChunk); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		sf, err := Open(path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		dst := chunk.NewStore(src.Geometry())
		if err := dst.AttachTier(sf, 2*8*16); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 400; k++ {
					i := r.Intn(96)
					want, got := src.Get([]int{i}), dst.Get([]int{i})
					if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
						t.Errorf("mmap=%v cell %d = %v, want %v", mmap, i, got, want)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		if st := dst.SpillStats(); st.Faults < 6 || st.Evictions == 0 {
			t.Fatalf("mmap=%v: %d faults, %d evictions — the pool never churned", mmap, st.Faults, st.Evictions)
		}
		if err := dst.CloseSpill(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentNegativeSlotLengthRefused: an index entry whose length
// reads negative (with the index and header CRCs made to match) used to
// pass Open's span check and panic sizing the read buffer; Open now
// refuses it.
func TestSegmentNegativeSlotLengthRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cube-v000001.seg")
	writeTestSegment(t, path, []byte("m"))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(b[40:48])
	indexLen := binary.LittleEndian.Uint64(b[48:56])
	index := b[indexOff : indexOff+indexLen]
	binary.LittleEndian.PutUint64(index[16:24], ^uint64(15)) // first slot: length -16
	binary.LittleEndian.PutUint32(b[68:72], crc32.ChecksumIEEE(index))
	binary.LittleEndian.PutUint32(b[72:76], crc32.ChecksumIEEE(b[:headerLen-4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		if sf, err := Open(path, OpenOptions{Mmap: mmap}); err == nil {
			sf.Close()
			t.Fatalf("mmap=%v: a slot of negative length opened", mmap)
		} else if !strings.Contains(err.Error(), "outside file") {
			t.Fatalf("mmap=%v: error %q does not name the slot span", mmap, err)
		}
	}
}

// restamp recomputes the meta, index and header CRCs of segment bytes
// b in place, wherever the header's region fields point inside b, so a
// mutation of a region size or slot entry gets past the checksums to the
// code that trusts them.
func restamp(b []byte) {
	if len(b) < headerLen {
		return
	}
	for _, r := range [][3]int{{24, 32, 64}, {40, 48, 68}} { // meta, index: offset, length, CRC fields
		off, n := binary.LittleEndian.Uint64(b[r[0]:]), binary.LittleEndian.Uint64(b[r[1]:])
		if off <= uint64(len(b)) && n <= uint64(len(b))-off {
			binary.LittleEndian.PutUint32(b[r[2]:], crc32.ChecksumIEEE(b[off:off+n]))
		}
	}
	binary.LittleEndian.PutUint32(b[72:76], crc32.ChecksumIEEE(b[:headerLen-4]))
}

// FuzzOpenSegment writes arbitrary bytes to a file — with the header's
// checksums recomputed over them, or as they are — and opens it by pread
// and by mmap, then reads every chunk the index names: each call returns
// an error or a chunk, never a panic.
func FuzzOpenSegment(f *testing.F) {
	for _, name := range []string{"parent-v01.seg", "parent-v02.seg"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
	}
	// A fresh two-chunk segment and its truncations inside the header,
	// inside the index and by its last byte.
	s := chunk.NewStore(chunk.MustGeometry([]int{8}, []int{4}))
	for i, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		s.Set([]int{i}, v)
	}
	path := filepath.Join(f.TempDir(), "two.seg")
	if err := Create(path, 4, []byte("m"), s.ChunkIDs(), s.PeekChunk); err != nil {
		f.Fatal(err)
	}
	two, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(two[40:48])
	for _, n := range []int{len(two), headerLen / 2, int(indexOff) + indexEntrySz/2, len(two) - 1} {
		f.Add(two[:n], false)
	}
	// Reproducers, restamped: region sizes Open used to hand to make
	// unchecked (a negative meta length panicked, a huge one sized the
	// allocation), and a slot length that, summed with the slot offset,
	// overflowed past the span check and panicked the read.
	for _, edit := range []struct{ at, v uint64 }{{32, ^uint64(0)}, {32, 1 << 40}, {indexOff + 16, math.MaxInt64}} {
		b := append([]byte(nil), two...)
		binary.LittleEndian.PutUint64(b[edit.at:], edit.v)
		f.Add(b, true)
	}

	// One file per fuzzing process: its inputs run one at a time.
	path = filepath.Join(f.TempDir(), "f.seg")
	f.Fuzz(func(t *testing.T, b []byte, stamp bool) {
		if stamp {
			b = append([]byte(nil), b...)
			restamp(b)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			sf, err := Open(path, OpenOptions{Mmap: mmap})
			if err != nil {
				continue
			}
			for _, id := range sf.IDs() {
				if c, _, err := sf.ReadChunkAt(id); (c == nil) == (err == nil) {
					t.Fatalf("mmap=%v chunk %d: chunk %v with error %v", mmap, id, c != nil, err)
				}
			}
			sf.Close()
		}
	})
}
