package chunk

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomChunk fills a fresh chunk with a mix of value runs, isolated
// cells and Null gaps, biased toward repetition so run encoding has
// something to find. Negative zero appears on purpose: run equality is
// on bit patterns, so -0 and 0 must never merge into one run.
func randomChunk(rng *rand.Rand, capacity int) *Chunk {
	c := NewSparse(capacity)
	vals := []float64{1.5, 1.5, -2, 0, math.Copysign(0, -1), 7.25}
	off := 0
	for off < capacity {
		runLen := 1 + rng.Intn(6)
		if off+runLen > capacity {
			runLen = capacity - off
		}
		switch rng.Intn(4) {
		case 0: // Null gap
		default:
			v := vals[rng.Intn(len(vals))]
			for i := off; i < off+runLen; i++ {
				c.Set(i, v)
			}
		}
		off += runLen
	}
	return c
}

// cellsBits dumps a chunk as offset → value bit pattern, so comparisons
// distinguish -0 from 0.
func cellsBits(c *Chunk) map[int]uint64 {
	out := make(map[int]uint64)
	c.ForEach(func(off int, v float64) bool {
		out[off] = math.Float64bits(v)
		return true
	})
	return out
}

func sameBits(t *testing.T, label string, want, got map[int]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for off, wb := range want {
		if gb, ok := got[off]; !ok || gb != wb {
			t.Fatalf("%s: cell %d = %#x, want %#x", label, off, gb, wb)
		}
	}
}

func TestRunEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c := randomChunk(rng, 48)
		want := cellsBits(c)
		n := c.Len()
		if !c.ForceRuns() && n > 0 {
			t.Fatal("ForceRuns refused a non-empty chunk")
		}
		if n == 0 {
			continue
		}
		if c.Rep() != RunEncoded {
			t.Fatalf("Rep = %v after ForceRuns", c.Rep())
		}
		if c.Len() != n {
			t.Fatalf("Len = %d after encode, want %d", c.Len(), n)
		}
		// Reads resolve through the run binary search.
		for off := 0; off < c.Cap(); off++ {
			got := c.Get(off)
			wb, present := want[off]
			if present != !math.IsNaN(got) || (present && math.Float64bits(got) != wb) {
				t.Fatalf("encoded Get(%d) = %v, want bits %#x (present=%v)", off, got, wb, present)
			}
		}
		if !c.DecodeRuns() {
			t.Fatal("DecodeRuns refused an encoded chunk")
		}
		if c.Rep() == RunEncoded {
			t.Fatal("still run-encoded after DecodeRuns")
		}
		sameBits(t, "decode", want, cellsBits(c))
	}
}

func TestForEachRunEquivalentAcrossReps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	expand := func(c *Chunk) map[int]uint64 {
		out := make(map[int]uint64)
		prevEnd := -1
		c.ForEachRun(func(off, runLen int, v float64) bool {
			if runLen <= 0 || off < prevEnd {
				t.Fatalf("run (%d,%d) overlaps or is empty (prev end %d)", off, runLen, prevEnd)
			}
			prevEnd = off + runLen
			for i := off; i < off+runLen; i++ {
				out[i] = math.Float64bits(v)
			}
			return true
		})
		return out
	}
	for i := 0; i < 100; i++ {
		base := randomChunk(rng, 40)
		want := cellsBits(base)

		sparse := base.Clone()
		sparse.ForceSparse()
		sameBits(t, "sparse runs", want, expand(sparse))

		dense := base.Clone()
		if dense.Rep() != Dense {
			dense.toDense()
		}
		sameBits(t, "dense runs", want, expand(dense))

		rle := base.Clone()
		rle.ForceRuns()
		sameBits(t, "encoded runs", want, expand(rle))

		// Runs are maximal: adjacent runs never carry the same bits.
		var lastEnd int
		var lastBits uint64
		first := true
		rle.ForEachRun(func(off, runLen int, v float64) bool {
			b := math.Float64bits(v)
			if !first && off == lastEnd && b == lastBits {
				t.Fatalf("runs at %d not maximal", off)
			}
			first, lastEnd, lastBits = false, off+runLen, b
			return true
		})
	}
}

// TestForEachRunAllocs pins the scan hot path: iterating runs allocates
// nothing on any representation.
func TestForEachRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randomChunk(rng, 64)
	sparse := base.Clone()
	sparse.ForceSparse()
	dense := base.Clone()
	if dense.Rep() != Dense {
		dense.toDense()
	}
	rle := base.Clone()
	rle.ForceRuns()
	sink := 0.0
	for _, tc := range []struct {
		name string
		c    *Chunk
	}{{"sparse", sparse}, {"dense", dense}, {"run-encoded", rle}} {
		fn := func(off, runLen int, v float64) bool {
			sink += v
			return true
		}
		if avg := testing.AllocsPerRun(100, func() { tc.c.ForEachRun(fn) }); avg != 0 {
			t.Errorf("%s: ForEachRun allocates %.1f per iteration, want 0", tc.name, avg)
		}
	}
	_ = sink
}

// TestForEachSpanAllocs pins the slab kernel's read path: visiting a
// chunk's spans allocates nothing on any representation.
func TestForEachSpanAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomChunk(rng, 64)
	sparse := base.Clone()
	sparse.ForceSparse()
	dense := base.Clone()
	if dense.Rep() != Dense {
		dense.toDense()
	}
	rle := base.Clone()
	rle.ForceRuns()
	scratch := make([]float64, 8)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	sink := 0
	fn := func(off, n int, cells []float64, v float64) { sink += n }
	for _, tc := range []struct {
		name string
		c    *Chunk
	}{{"sparse", sparse}, {"dense", dense}, {"run-encoded", rle}} {
		if avg := testing.AllocsPerRun(100, func() { tc.c.ForEachSpan(8, scratch, fn) }); avg != 0 {
			t.Errorf("%s: ForEachSpan allocates %.1f per iteration, want 0", tc.name, avg)
		}
	}
	_ = sink
}

func TestEncodeRunsThreshold(t *testing.T) {
	// Alternating values: every cell its own run, ratio 1 > 0.5.
	c := NewSparse(16)
	for i := 0; i < 16; i++ {
		c.Set(i, float64(i))
	}
	if c.EncodeRuns() {
		t.Fatal("EncodeRuns converted a chunk of length-1 runs")
	}
	if c.Rep() == RunEncoded {
		t.Fatal("rep changed despite refusal")
	}
	// One long run: ratio 1/16, converts and shrinks.
	r := NewSparse(16)
	for i := 0; i < 16; i++ {
		r.Set(i, 42)
	}
	before := r.MemBytes()
	if !r.EncodeRuns() {
		t.Fatal("EncodeRuns refused a single-run chunk")
	}
	if r.Rep() != RunEncoded || r.RunCount() != 1 {
		t.Fatalf("Rep = %v, runs = %d", r.Rep(), r.RunCount())
	}
	if r.MemBytes() >= before {
		t.Fatalf("encoded MemBytes %d not below %d", r.MemBytes(), before)
	}
}

// TestRunEncodedSetDecodesFirst checks the copy-on-write contract:
// mutating a run-encoded chunk decodes it, applies the write, and the
// result matches the same writes on a never-encoded twin.
func TestRunEncodedSetDecodesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		plain := randomChunk(rng, 32)
		rle := plain.Clone()
		rle.ForceRuns()
		for j := 0; j < 10; j++ {
			off := rng.Intn(32)
			v := math.NaN()
			if rng.Intn(3) > 0 {
				v = float64(rng.Intn(5))
			}
			plain.Set(off, v)
			rle.Set(off, v)
		}
		if rle.Rep() == RunEncoded {
			t.Fatal("chunk still run-encoded after Set")
		}
		sameBits(t, "after edits", cellsBits(plain), cellsBits(rle))
	}
}

// TestSetRunMatchesPerCell drives the two bulk writes — SetRun and
// SetCells — against per-cell Set on a twin chunk, from every kind of
// destination (fresh, sparse, one slab short of promotion, dense,
// run-encoded) across random ranges and values, with NaN deletions for
// SetRun, and holes, overwrites of held cells and partial overlaps for
// SetCells. Len must agree after every write, the cells bit for bit at
// the end, and SetCells must report exactly the non-null cells it was
// given.
func TestSetRunMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const capacity = 40
	for i := 0; i < 300; i++ {
		var a *Chunk
		switch i % 5 {
		case 0:
			a = NewSparse(capacity)
		case 1:
			a = randomChunk(rng, capacity)
			a.ForceSparse()
		case 2: // sparse, at the promotion threshold: the next cell crosses it
			a = NewSparse(capacity)
			for _, off := range rng.Perm(capacity)[:capacity/4] {
				a.Set(off, 9)
			}
			if a.Rep() != Sparse {
				t.Fatal("threshold fixture already promoted")
			}
		case 3:
			a = NewDense(capacity)
			a.SetRun(0, capacity/2, 3)
		case 4:
			a = randomChunk(rng, capacity)
			a.ForceRuns()
		}
		b := a.Clone()
		for j := 0; j < 8; j++ {
			off := rng.Intn(capacity)
			n := 1 + rng.Intn(capacity-off)
			if rng.Intn(2) == 0 {
				v := float64(rng.Intn(4))
				if rng.Intn(4) == 0 {
					v = math.NaN()
				}
				a.SetRun(off, n, v)
				for k := off; k < off+n; k++ {
					b.Set(k, v)
				}
			} else {
				cells := make([]float64, n)
				want := 0
				for k := range cells {
					cells[k] = math.NaN()
					if rng.Intn(3) > 0 {
						cells[k] = float64(rng.Intn(4))
						b.Set(off+k, cells[k])
						want++
					}
				}
				if got := a.SetCells(off, cells); got != want {
					t.Fatalf("SetCells(%d,%v) wrote %d cells, want %d", off, cells, got, want)
				}
			}
			if a.Len() != b.Len() {
				t.Fatalf("fixture %d: Len %d vs %d after write %d at [%d,%d)", i%5, a.Len(), b.Len(), j, off, off+n)
			}
		}
		sameBits(t, "bulk writes", cellsBits(b), cellsBits(a))
	}
}

// TestSetCellsSplicesSparse pins the sparse destination's bulk path: a
// slab landing past the last held cell appends, one landing between
// held cells splices in order, and a slab that would cross the density
// threshold promotes the chunk once, before any cell is written.
func TestSetCellsSplicesSparse(t *testing.T) {
	nan := math.NaN()
	c := NewSparse(64)
	c.SetCells(40, []float64{1, nan, 2})
	c.SetCells(50, []float64{3})      // append
	c.SetCells(10, []float64{4, 5})   // before everything
	c.SetCells(44, []float64{nan, 6}) // between
	if c.Rep() != Sparse {
		t.Fatalf("Rep = %v after 7 of 64 cells, want Sparse", c.Rep())
	}
	var offs []int
	c.ForEach(func(off int, v float64) bool { offs = append(offs, off); return true })
	if want := []int{10, 11, 40, 42, 45, 50}; !slices.Equal(offs, want) {
		t.Fatalf("offsets %v, want %v", offs, want)
	}
	if c.Get(45) != 6 || c.Get(41) == c.Get(41) || c.Len() != 6 {
		t.Fatalf("cell 45 = %v, cell 41 = %v, Len = %d", c.Get(45), c.Get(41), c.Len())
	}
	slab := make([]float64, 12) // 6 + 12 > 16 = a quarter of 64
	c.SetCells(20, slab)
	if c.Rep() != Dense || c.Len() != 18 {
		t.Fatalf("Rep = %v, Len = %d after crossing the threshold; want Dense, 18", c.Rep(), c.Len())
	}
}

// TestForEachSpanCoversEveryCell checks the kernel's feeder on all three
// representations: the spans, laid over a Null array, reproduce the
// chunk bit for bit; sparse spans are aligned slabs; the scratch slab
// comes back all Null.
func TestForEachSpanCoversEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const capacity, slab = 48, 4
	scratch := make([]float64, slab)
	nullFill(scratch)
	for i := 0; i < 150; i++ {
		c := randomChunk(rng, capacity)
		switch i % 3 {
		case 0:
			c.ForceSparse()
		case 1:
			c.ForceRuns()
		default:
			if c.Len() > 0 && c.Rep() != Dense {
				c.toDense()
			}
		}
		got := NewSparse(capacity)
		c.ForEachSpan(slab, scratch, func(off, n int, cells []float64, v float64) {
			if c.Rep() == Sparse && (off%slab != 0 || n != slab) {
				t.Fatalf("sparse span [%d,%d) is not a slab", off, off+n)
			}
			for k := 0; k < n; k++ {
				cell := v
				if cells != nil {
					cell = cells[k]
				}
				if !math.IsNaN(cell) {
					if !math.IsNaN(got.Get(off + k)) {
						t.Fatalf("offset %d covered twice", off+k)
					}
					got.Set(off+k, cell)
				}
			}
		})
		sameBits(t, [...]string{"sparse", "runs", "dense"}[i%3], cellsBits(c), cellsBits(got))
		if countCells(scratch) != 0 {
			t.Fatal("scratch slab not Null after ForEachSpan")
		}
	}
}

// TestRunRecordCodecRoundTrip checks the run record layout through
// EncodeChunk/DecodeChunk: bit-exact values (incl. -0), preserved
// representation (a fault restores compressed), correct cell count.
func TestRunRecordCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		c := randomChunk(rng, 48)
		if c.Len() == 0 {
			continue
		}
		c.ForceRuns()
		rec := EncodeChunk(c)
		if got := RecordCells(rec); got != c.Len() {
			t.Fatalf("RecordCells = %d, want %d", got, c.Len())
		}
		back, err := DecodeChunk(rec, c.Cap())
		if err != nil {
			t.Fatal(err)
		}
		if back.Rep() != RunEncoded {
			t.Fatalf("decoded Rep = %v, want RunEncoded", back.Rep())
		}
		if back.Len() != c.Len() {
			t.Fatalf("decoded Len = %d, want %d", back.Len(), c.Len())
		}
		sameBits(t, "codec", cellsBits(c), cellsBits(back))
	}
}

func TestRunRecordCorruptRejected(t *testing.T) {
	c := NewSparse(16)
	for i := 2; i < 10; i++ {
		c.Set(i, 3.5)
	}
	c.ForceRuns()
	rec := EncodeChunk(c)
	// Each single-byte corruption of the payload must either fail to
	// decode or decode to a structurally valid chunk — never panic and
	// never produce an out-of-range run.
	for i := range rec {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), rec...)
			mut[i] ^= flip
			back, err := DecodeChunk(mut, c.Cap())
			if err != nil {
				continue
			}
			back.ForEachRun(func(off, runLen int, v float64) bool {
				if off < 0 || off+runLen > c.Cap() || runLen <= 0 || math.IsNaN(v) {
					t.Fatalf("byte %d flip %#x: invalid run (%d,%d,%v) decoded", i, flip, off, runLen, v)
				}
				return true
			})
		}
	}
	// Truncations must error, not panic.
	for cut := 0; cut < len(rec); cut++ {
		if _, err := DecodeChunk(rec[:cut], c.Cap()); err == nil && cut < len(rec) {
			// Short pair-records of whole cells can be valid; run records
			// never are unless the header says so.
			if RecordCells(rec[:cut]) == 0 && cut > 0 {
				t.Fatalf("truncation to %d bytes decoded silently", cut)
			}
		}
	}
}

// TestEncodeRunsAllPoolAccounting checks satellite invariant: a pooled
// store's resident-byte accounting follows representation sweeps, so
// run encoding creates real budget headroom.
func TestEncodeRunsAllPoolAccounting(t *testing.T) {
	g := MustGeometry([]int{64}, []int{16}) // 4 chunks of 16
	s := NewStore(g)
	pageOut(t, s, 1<<20)
	for i := 0; i < 64; i++ {
		s.Set([]int{i}, 9.75) // one value → one run per chunk
	}
	before := s.SpillStats().ResidentBytes
	if before != s.MemBytes() {
		t.Fatalf("accounting %d != MemBytes %d before encode", before, s.MemBytes())
	}
	if n := s.EncodeRunsAll(); n != 4 {
		t.Fatalf("EncodeRunsAll converted %d chunks, want 4", n)
	}
	after := s.SpillStats().ResidentBytes
	if after != s.MemBytes() {
		t.Fatalf("accounting %d != MemBytes %d after encode", after, s.MemBytes())
	}
	if after >= before {
		t.Fatalf("resident bytes %d did not shrink from %d", after, before)
	}
	for i := 0; i < 64; i++ {
		if got := s.Get([]int{i}); got != 9.75 {
			t.Fatalf("Get(%d) = %v after encode", i, got)
		}
	}
}

// TestRunEncodedSpillRoundTrip faults run-encoded chunks through a
// tier: the tier holds run records, and the fault restores them still
// compressed.
func TestRunEncodedSpillRoundTrip(t *testing.T) {
	g := MustGeometry([]int{64}, []int{16})
	s := NewStore(g)
	for i := 0; i < 64; i++ {
		s.Set([]int{i}, float64(1+i/16)) // one run per chunk
	}
	if n := s.EncodeRunsAll(); n != 4 {
		t.Fatalf("EncodeRunsAll = %d, want 4", n)
	}
	// A budget of a quarter of the encoded bytes keeps one chunk resident.
	pageOut(t, s, s.MemBytes()/4)
	if st := s.SpillStats(); st.Spilled == 0 {
		t.Fatal("nothing spilled under a quarter budget")
	}
	for i := 0; i < 64; i++ {
		if got, want := s.Get([]int{i}), float64(1+i/16); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
	for _, id := range s.ChunkIDs() {
		if c := s.ReadChunk(id); c.Rep() != RunEncoded {
			t.Fatalf("chunk %d faulted back as %v, want RunEncoded", id, c.Rep())
		}
	}
}

// TestRunPropertyQuick is the property form: any write sequence, any
// encode/decode points — reads always match a plain map model.
func TestRunPropertyQuick(t *testing.T) {
	property := func(ops []uint16) bool {
		const capacity = 24
		c := NewSparse(capacity)
		model := map[int]float64{}
		for step, op := range ops {
			off := int(op) % capacity
			switch (op >> 8) % 4 {
			case 0:
				v := float64(op % 7)
				c.Set(off, v)
				model[off] = v
			case 1:
				c.Set(off, math.NaN())
				delete(model, off)
			case 2:
				n := 1 + int(op>>11)%(capacity-off)
				v := float64(op % 5)
				c.SetRun(off, n, v)
				for k := off; k < off+n; k++ {
					model[k] = v
				}
			case 3:
				if step%2 == 0 {
					c.ForceRuns()
				} else {
					c.DecodeRuns()
				}
			}
		}
		if c.Len() != len(model) {
			return false
		}
		for off := 0; off < capacity; off++ {
			got := c.Get(off)
			want, ok := model[off]
			if ok != !math.IsNaN(got) || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
