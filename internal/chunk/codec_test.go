package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime/metrics"
	"strings"
	"testing"
)

// refDecodeChunk is the decoder the one-pass decodeChunk replaced, kept
// as its oracle: every pair of a pair record goes through Chunk.Set, so
// the representation is whatever Set's growth and promotion arrive at.
// It repairs what the new decoder rejects (unordered, duplicate or Null
// cells), so the two are compared only on records encodeChunk emits.
func refDecodeChunk(buf []byte, capacity int) (*Chunk, error) {
	if len(buf) < pairHeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(buf)&runRecordFlag != 0 {
		return decodeRunRecord(buf, capacity)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != pairHeaderLen+pairCellLen*n {
		return nil, fmt.Errorf("chunk: corrupt pair record: %d cells in %d bytes", n, len(buf))
	}
	c := NewSparse(capacity)
	for i := 0; i < n; i++ {
		rec := buf[pairHeaderLen+pairCellLen*i:]
		off := int(binary.LittleEndian.Uint32(rec))
		v := math.Float64frombits(binary.LittleEndian.Uint64(rec[4:]))
		if off >= capacity {
			return nil, fmt.Errorf("chunk: corrupt pair record: offset %d beyond capacity %d", off, capacity)
		}
		c.Set(off, v)
	}
	return c, nil
}

// pairRecord hand-builds a pair record, so tests can write what
// encodeChunk never would.
func pairRecord(header int, offs []uint32, vals []float64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(header))
	for i, off := range offs {
		buf = binary.LittleEndian.AppendUint32(buf, off)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[i]))
	}
	return buf
}

// filled returns a chunk of the given capacity holding n cells spread
// over it, built through Set like any store chunk.
func filled(capacity, n int) *Chunk {
	c := NewSparse(capacity)
	for i := 0; i < n; i++ {
		c.Set(i*capacity/n, float64(i)+0.5)
	}
	return c
}

// checkDecoded fails unless c is a well-formed chunk of the capacity:
// its value runs ascend without overlap below the capacity and hold no
// Null, Len counts their cells, Get agrees at both ends of each, and the
// representation is the one its occupancy calls for. (By run, so that a
// 24-byte run record covering a million cells costs one step.)
func checkDecoded(t testing.TB, c *Chunk, capacity int) {
	t.Helper()
	if c.Cap() != capacity {
		t.Fatalf("Cap = %d, want %d", c.Cap(), capacity)
	}
	cells, end := 0, 0
	c.ForEachRun(func(off, n int, v float64) bool {
		if off < end || n <= 0 || off+n > capacity || math.IsNaN(v) {
			t.Fatalf("run [%d,%d) = %v after offset %d, capacity %d", off, off+n, v, end, capacity)
		}
		for _, at := range []int{off, off + n - 1} {
			if got := c.Get(at); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("Get(%d) = %v, its run holds %v", at, got, v)
			}
		}
		cells, end = cells+n, off+n
		return true
	})
	if cells != c.Len() {
		t.Fatalf("Len = %d, chunk holds %d cells", c.Len(), cells)
	}
	if c.Rep() != RunEncoded && (c.Rep() == Dense) != (c.Occupancy() > sparseThreshold) {
		t.Fatalf("Rep = %v at occupancy %v", c.Rep(), c.Occupancy())
	}
	if c.Rep() == Sparse && (len(c.offs) != cells || len(c.vals) != cells) {
		t.Fatalf("sparse slices %d/%d for %d cells", len(c.offs), len(c.vals), cells)
	}
}

// TestDecodeMatchesReference pins the one-pass decoder to the per-cell
// Set decoder on every shape encodeChunk emits: cells bit for bit, Len,
// Rep and MemBytes, on both sides of the sparse threshold.
func TestDecodeMatchesReference(t *testing.T) {
	const capacity = 64
	shapes := map[string]*Chunk{
		"empty":           NewSparse(capacity),
		"one cell":        filled(capacity, 1),
		"n = cap/4":       filled(capacity, capacity/4),
		"n = cap/4 + 1":   filled(capacity, capacity/4+1),
		"full":            filled(capacity, capacity),
		"dense compacted": filled(capacity, capacity),
		"forced sparse":   filled(capacity, capacity/2),
		"run-encoded":     filled(capacity, capacity/2),
		"negative zero":   NewSparse(capacity),
	}
	for off := 0; off < capacity; off += 2 {
		shapes["dense compacted"].Set(off, math.NaN()) // dense, half empty
	}
	shapes["forced sparse"].ForceSparse()
	shapes["run-encoded"].SetRun(8, 20, 7)
	shapes["run-encoded"].ForceRuns()
	shapes["negative zero"].Set(5, math.Copysign(0, -1))
	shapes["negative zero"].Set(6, math.Inf(-1))

	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		c := randomChunk(rng, 48)
		if i%3 == 0 {
			c.ForceRuns()
		}
		shapes[fmt.Sprintf("random %d", i)] = c
	}

	for name, c := range shapes {
		rec := encodeChunk(c)
		want, err := refDecodeChunk(rec, c.Cap())
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := decodeChunk(rec, c.Cap())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDecoded(t, got, c.Cap())
		sameBits(t, name+" vs source", cellsBits(c), cellsBits(got))
		sameBits(t, name+" vs reference", cellsBits(want), cellsBits(got))
		if got.Len() != want.Len() || got.Rep() != want.Rep() || got.MemBytes() != want.MemBytes() {
			t.Fatalf("%s: Len/Rep/MemBytes = %d/%v/%d, reference %d/%v/%d", name,
				got.Len(), got.Rep(), got.MemBytes(), want.Len(), want.Rep(), want.MemBytes())
		}
		if again := encodeChunk(got); !bytes.Equal(again, rec) {
			t.Fatalf("%s: re-encoding the decoded chunk changed the record", name)
		}
	}
	if r := shapes["n = cap/4"].Rep(); r != Sparse {
		t.Fatalf("n = cap/4 built %v, want Sparse", r)
	}
	if r := shapes["n = cap/4 + 1"].Rep(); r != Dense {
		t.Fatalf("n = cap/4 + 1 built %v, want Dense", r)
	}
}

// TestDecodeRejectsWhatEncodeCannotEmit names the error of each record
// shape the decoder refuses instead of repairing.
func TestDecodeRejectsWhatEncodeCannotEmit(t *testing.T) {
	const capacity = 16
	good := pairRecord(2, []uint32{3, 9}, []float64{1, 2})
	runs := encodeChunk(func() *Chunk { c := filled(capacity, 8); c.ForceRuns(); return c }())
	noRuns := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, runRecordFlag), 0)
	cases := []struct {
		name string
		rec  []byte
		want string
	}{
		{"no header", good[:3], io.ErrUnexpectedEOF.Error()},
		{"truncated", good[:len(good)-1], "2 cells in 27 bytes"},
		{"truncated by a cell", good[:len(good)-pairCellLen], "2 cells in 16 bytes"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "2 cells in 29 bytes"},
		{"trailing cell", pairRecord(1, []uint32{3, 9}, []float64{1, 2}), "1 cells in 28 bytes"},
		{"descending", pairRecord(2, []uint32{9, 3}, []float64{1, 2}), "offset 3 after 9, not ascending"},
		{"duplicate", pairRecord(2, []uint32{9, 9}, []float64{1, 2}), "offset 9 after 9, not ascending"},
		{"null value", pairRecord(2, []uint32{3, 9}, []float64{1, math.NaN()}), "offset 9 holds Null"},
		{"out of range", pairRecord(2, []uint32{3, capacity}, []float64{1, 2}), "offset 16 beyond capacity 16"},
		{"out of range, dense", pairRecord(5, []uint32{0, 1, 2, 3, 1 << 31}, make([]float64, 5)), "beyond capacity 16"},
		{"more cells than capacity", pairRecord(17, make([]uint32, 17), make([]float64, 17)), "offset 0 after 0, not ascending"},
		{"run record without runs", noRuns, "no runs"},
		{"run record truncated", runs[:len(runs)-1], "runs in"},
		{"run record trailing bytes", append(append([]byte(nil), runs...), 0), "runs in"},
	}
	for _, tc := range cases {
		c, err := decodeChunk(tc.rec, capacity)
		if err == nil {
			t.Errorf("%s: decoded to %d cells, want an error", tc.name, c.Len())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if _, err := decodeChunk(good, capacity); err != nil {
		t.Fatalf("the well-formed record the cases are cut from: %v", err)
	}
}

// TestDecodeDoesNotAliasRecord scribbles over the record after decoding
// it: the chunk must not change, or a recycled read buffer would corrupt
// resident chunks.
func TestDecodeDoesNotAliasRecord(t *testing.T) {
	sparse, dense, runs := filled(64, 9), filled(64, 40), filled(64, 32)
	runs.ForceRuns()
	for _, c := range []*Chunk{sparse, dense, runs} {
		rec := encodeChunk(c)
		got, err := decodeChunk(rec, c.Cap())
		if err != nil {
			t.Fatal(err)
		}
		for i := range rec {
			rec[i] = 0xA5
		}
		sameBits(t, fmt.Sprint("scribbled ", c.Rep()), cellsBits(c), cellsBits(got))
	}
}

// TestDecodeAllocs pins the decoder's allocations: the chunk plus its
// one dense array, two sparse slices or three run slices — and nothing
// that grows with the cell count.
func TestDecodeAllocs(t *testing.T) {
	const capacity = 3840 // the workforce cube's chunk
	sparse, dense, runs := filled(capacity, capacity/4), filled(capacity, 2400), filled(capacity, capacity)
	runs.ForceRuns()
	for _, tc := range []struct {
		c    *Chunk
		want float64
	}{{dense, 2}, {sparse, 3}, {runs, 4}} {
		rec := encodeChunk(tc.c)
		got := testing.AllocsPerRun(50, func() {
			if _, err := decodeChunk(rec, capacity); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("decoding a %v chunk of %d cells: %v allocations, want <= %v", tc.c.Rep(), tc.c.Len(), got, tc.want)
		}
	}
	if got := testing.AllocsPerRun(50, func() { encodeChunk(dense) }); got > 1 {
		t.Errorf("encoding a dense chunk: %v allocations, want 1", got)
	}
}

// TestRecordBufRecycles pins the read buffer's steady state: once one
// buffer of the record size exists, getting and releasing allocates
// nothing.
func TestRecordBufRecycles(t *testing.T) {
	ReleaseRecordBuf(RecordBuf(1 << 16))
	got := testing.AllocsPerRun(100, func() {
		b := RecordBuf(46084)
		if len(*b) != 46084 {
			t.Fatalf("len = %d", len(*b))
		}
		ReleaseRecordBuf(b)
	})
	if got != 0 {
		t.Fatalf("steady-state RecordBuf: %v allocations, want 0", got)
	}
	ReleaseRecordBuf(nil)
}

// Bounds on what one decodeChunk call may allocate, in bytes per record
// byte plus a constant. A dense array is made only when count >
// capacity/4, and then 8·capacity < 32·count < (8/3)·len(record); sparse
// and run slices are no larger than the record. The slack absorbs the
// error value and whatever small allocations the runtime attributes
// late; an array sized from a hostile header alone (8 MiB at the largest
// fuzzed capacity) is far beyond it.
const (
	maxDecodeAllocRatio = 3
	decodeAllocSlack    = 1 << 20
)

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzDecodeChunk feeds the decoder arbitrary bytes at a few capacities:
// it must return an error or a well-formed chunk that re-encodes to the
// very bytes it was decoded from, never panic, and never size an
// allocation from the header alone.
func FuzzDecodeChunk(f *testing.F) {
	seed := NewSparse(100)
	seed.Set(3, 1.5)
	seed.Set(99, -2)
	f.Add(encodeChunk(seed), uint8(2)) // TestEncodeDecodeChunkRoundTrip's record
	runs := NewSparse(16)
	for i := 2; i < 10; i++ {
		runs.Set(i, 3.5)
	}
	runs.ForceRuns()
	rec := encodeChunk(runs) // TestRunRecordCorruptRejected's record and its mutations
	f.Add(rec, uint8(0))
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x80
		f.Add(mut, uint8(0))
	}
	f.Add(encodeChunk(filled(16, 5)), uint8(0)) // dense; seeds stay small, the engine minimizes by the byte
	f.Add(encodeChunk(filled(100, 26)), uint8(2))
	f.Add(pairRecord(1<<30, nil, nil), uint8(3))
	f.Add(pairRecord(2, []uint32{9, 3}, []float64{1, 2}), uint8(0))
	f.Add([]byte{}, uint8(1))

	capacities := []int{16, 0, 100, 3840, 1 << 20}
	before := heapAllocBytes()
	codecSink = make([]byte, 8<<20) // a dense array at the largest capacity
	if got := heapAllocBytes() - before; got < 8<<20 {
		f.Fatalf("the allocation gauge saw %d bytes of an 8 MiB allocation", got)
	}
	codecSink = nil
	f.Fuzz(func(t *testing.T, buf []byte, pick uint8) {
		capacity := capacities[int(pick)%len(capacities)]
		before := heapAllocBytes()
		c, err := decodeChunk(buf, capacity)
		if got := heapAllocBytes() - before; got > uint64(maxDecodeAllocRatio*len(buf)+decodeAllocSlack) {
			t.Fatalf("decoding a %d-byte record at capacity %d allocated %d bytes", len(buf), capacity, got)
		}
		if err != nil {
			return
		}
		checkDecoded(t, c, capacity)
		if got := c.MemBytes(); got > maxDecodeAllocRatio*len(buf) {
			t.Fatalf("%d-byte record decoded to %d bytes of chunk (capacity %d)", len(buf), got, capacity)
		}
		if again := encodeChunk(c); !bytes.Equal(again, buf) {
			t.Fatalf("accepted a record encodeChunk would not emit:\n got  %x\n back %x", buf, again)
		}
		if got := RecordCells(buf); got != c.Len() {
			t.Fatalf("RecordCells = %d, decoded %d", got, c.Len())
		}
	})
}

// codecBenchChunk is the chunk the cold-pool workload faults: 3 840
// cells of capacity, two thirds of them occupied.
func codecBenchChunk() *Chunk { return filled(3840, 2560) }

func BenchmarkDecodeChunk(b *testing.B) {
	rec := encodeChunk(codecBenchChunk())
	for _, d := range []struct {
		name   string
		decode func([]byte, int) (*Chunk, error)
	}{{"onepass", decodeChunk}, {"recycled", decodeRecycled}, {"reference", refDecodeChunk}} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				if _, err := d.decode(rec, 3840); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeRecycled is a steady-state pool fault: the decode, then the
// eviction that hands the dense array to the next one.
func decodeRecycled(rec []byte, capacity int) (*Chunk, error) {
	c, err := decodeChunk(rec, capacity)
	if err == nil && c.dense != nil {
		recycleDenseFrame(&c.dense)
	}
	return c, err
}

var codecSink []byte

func BenchmarkEncodeChunk(b *testing.B) {
	c := codecBenchChunk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codecSink = encodeChunk(c)
	}
}
