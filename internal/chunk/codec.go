package chunk

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Record codec: the one serialized form of a chunk, written into every
// segment slot and decoded on every pool fault. Two record kinds share
// the format, discriminated by the top bit of the leading uint32, all
// little-endian:
//
//	pair record  uint32 cell count, then uint32 offset + float64 bits
//	             per cell (dense and sparse chunks; the v1 format)
//	run record   uint32 (runRecordFlag | run count), uint32 cell count,
//	             then uint32 start delta + uint32 length + float64 bits
//	             per run (run-encoded chunks; starts are delta-encoded
//	             against the previous run's end)
//
// Cell counts never approach 2^31 (chunk capacities are far smaller),
// so the flag bit cannot collide with a v1 pair record's count.
const (
	// pairHeaderLen is the pair-record header: a uint32 cell count.
	pairHeaderLen = 4
	// pairCellLen is one serialized cell: uint32 offset + float64 bits.
	pairCellLen = 12
	// runRecordFlag marks a run record in the leading uint32.
	runRecordFlag = uint32(1) << 31
	// runHeaderLen is the run-record header: flagged run count + cells.
	runHeaderLen = 8
	// runEntryLen is one serialized run: start delta, length, value bits.
	runEntryLen = 16
)

// EncodeChunk serializes a chunk in the record layout above: dense and
// sparse chunks as pair records, run-encoded chunks as run records, so
// a chunk round-trips bit-identically through a segment file — and a
// run-encoded chunk's disk bytes shrink with it.
func EncodeChunk(c *Chunk) []byte { return encodeChunk(c) }

// DecodeChunk deserializes a record written by EncodeChunk with the
// given capacity, straight into the representation the chunk ends in:
// a pair record holding more than a quarter of the capacity restores
// dense, a smaller one sparse, a run record run-encoded (a tier fault
// never silently decompresses). A record EncodeChunk could not have
// written — wrong length, offsets not strictly ascending or beyond the
// capacity, a Null value — is an error. The chunk never aliases buf, so
// a caller may recycle buf (RecordBuf) as soon as DecodeChunk returns.
func DecodeChunk(buf []byte, capacity int) (*Chunk, error) {
	return decodeChunk(buf, capacity)
}

// recordBufs recycles the buffers tiers pread encoded records into: a
// fault's record is garbage the moment it is decoded, and at ~12 bytes
// per cell it is larger than the chunk it yields.
var recordBufs sync.Pool // of *[]byte

// RecordBuf returns an n-byte buffer for reading one encoded record,
// recycled where possible. Hand it back with ReleaseRecordBuf once the
// record is decoded; its contents are unspecified.
func RecordBuf(n int) *[]byte {
	if b, _ := recordBufs.Get().(*[]byte); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// ReleaseRecordBuf returns a RecordBuf buffer for reuse. The caller must
// hold no reference into it afterwards. A nil b is a no-op.
func ReleaseRecordBuf(b *[]byte) {
	if b != nil {
		recordBufs.Put(b)
	}
}

// denseFrames holds dense arrays of evicted chunks that no reader can
// see any more (the buffer pool's recycle): a cold scan faults and
// evicts about one chunk per read, so the next fault's decode fills the
// array the last eviction freed instead of making, zeroing and
// Null-filling a fresh one.
var denseFrames sync.Pool // of *[]float64

// denseFrame returns a Null-filled array of capacity cells: a recycled
// one when the free list offers one of that capacity, else a new one.
func denseFrame(capacity int) []float64 {
	var d []float64
	if f, _ := denseFrames.Get().(*[]float64); f != nil && cap(*f) == capacity {
		d = (*f)[:capacity]
	} else {
		d = make([]float64, capacity)
	}
	nullFill(d)
	return d
}

// recycleDenseFrame hands a dense array to the next denseFrame. The
// caller must guarantee nothing reads or writes it afterwards.
func recycleDenseFrame(d *[]float64) { denseFrames.Put(d) }

// RecordCells sizes an encoded chunk record (cell count) from its
// header, without decoding the cells. Pair records are sized from the
// byte length; run records carry the count in their header.
func RecordCells(rec []byte) int {
	if len(rec) < pairHeaderLen {
		return 0
	}
	if binary.LittleEndian.Uint32(rec)&runRecordFlag != 0 {
		if len(rec) < runHeaderLen {
			return 0
		}
		return int(binary.LittleEndian.Uint32(rec[4:8]))
	}
	return (len(rec) - pairHeaderLen) / pairCellLen
}

// encodeChunk serializes a chunk: run-encoded chunks keep their runs
// (a run record), everything else flattens to the pair format, written
// straight from the representation into an exact-size buffer.
func encodeChunk(c *Chunk) []byte {
	if c.runOffs != nil {
		return encodeRunRecord(c)
	}
	buf := make([]byte, pairHeaderLen+pairCellLen*c.n)
	binary.LittleEndian.PutUint32(buf, uint32(c.n))
	cells := buf[pairHeaderLen:]
	if c.dense != nil {
		for off, v := range c.dense {
			if !math.IsNaN(v) {
				cells = putCell(cells, off, v)
			}
		}
		return buf
	}
	for i, off := range c.offs {
		cells = putCell(cells, int(off), c.vals[i])
	}
	return buf
}

// putCell writes one pair-record cell at the head of cells and returns
// the rest.
func putCell(cells []byte, off int, v float64) []byte {
	binary.LittleEndian.PutUint32(cells, uint32(off))
	binary.LittleEndian.PutUint64(cells[4:], math.Float64bits(v))
	return cells[pairCellLen:]
}

// decodeChunk deserializes a record written by encodeChunk into the
// chunk it will end as, in one pass: a run record restores run-encoded
// (a tier fault never silently decompresses), a pair record whose count
// is past sparseThreshold fills one dense array by offset (recycled
// where the pool freed one, denseFrame), any other fills exact-length
// sparse slices. The chunk shares no memory with buf.
//
// Only records encodeChunk can emit are accepted: the byte length must
// match the header, offsets must ascend strictly below capacity, and no
// value is Null. Anything else is reported as corrupt, never repaired.
// Allocation is bounded by the record's own length — the dense array is
// made only when count > capacity/4, i.e. when the record is already
// longer than 3 bytes per cell of capacity — so a hostile header cannot
// size it.
func decodeChunk(buf []byte, capacity int) (*Chunk, error) {
	if len(buf) < pairHeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	head := binary.LittleEndian.Uint32(buf)
	if head&runRecordFlag != 0 {
		return decodeRunRecord(buf, capacity)
	}
	n := int(head)
	cells := buf[pairHeaderLen:]
	if len(cells)%pairCellLen != 0 || len(cells)/pairCellLen != n {
		return nil, fmt.Errorf("chunk: corrupt pair record: %d cells in %d bytes", n, len(buf))
	}
	c := &Chunk{cap: capacity, n: n}
	if n == 0 {
		return c, nil
	}
	dense := c.Occupancy() > sparseThreshold
	if dense {
		c.dense = denseFrame(capacity)
	} else {
		c.offs = make([]int32, n)
		c.vals = make([]float64, n)
	}
	prev := -1
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint32(cells))
		v := math.Float64frombits(binary.LittleEndian.Uint64(cells[4:]))
		cells = cells[pairCellLen:]
		switch {
		case off >= capacity:
			return nil, fmt.Errorf("chunk: corrupt pair record: offset %d beyond capacity %d", off, capacity)
		case off <= prev:
			return nil, fmt.Errorf("chunk: corrupt pair record: offset %d after %d, not ascending", off, prev)
		case math.IsNaN(v):
			return nil, fmt.Errorf("chunk: corrupt pair record: offset %d holds Null", off)
		}
		if dense {
			c.dense[off] = v
		} else {
			c.offs[i], c.vals[i] = int32(off), v
		}
		prev = off
	}
	return c, nil
}

// encodeRunRecord serializes a run-encoded chunk: flagged run count,
// cell count, then one (start delta, length, value bits) entry per run.
// Starts are delta-encoded against the previous run's end — deltas are
// small (often 0 for back-to-back runs) and re-validate the no-overlap
// invariant on decode for free, since a negative gap cannot be encoded.
func encodeRunRecord(c *Chunk) []byte {
	runs := len(c.runOffs)
	buf := make([]byte, runHeaderLen, runHeaderLen+runEntryLen*runs)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(runs)|runRecordFlag)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(c.n))
	var ent [runEntryLen]byte
	prevEnd := 0
	for i, off := range c.runOffs {
		binary.LittleEndian.PutUint32(ent[0:4], uint32(int(off)-prevEnd))
		binary.LittleEndian.PutUint32(ent[4:8], uint32(c.runLens[i]))
		binary.LittleEndian.PutUint64(ent[8:16], math.Float64bits(c.runVals[i]))
		buf = append(buf, ent[:]...)
		prevEnd = int(off) + int(c.runLens[i])
	}
	return buf
}

// decodeRunRecord deserializes a run record into a run-encoded chunk,
// validating run bounds, ordering and the redundant cell count.
func decodeRunRecord(buf []byte, capacity int) (*Chunk, error) {
	if len(buf) < runHeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	runs := int(binary.LittleEndian.Uint32(buf[0:4]) &^ runRecordFlag)
	cells := int(binary.LittleEndian.Uint32(buf[4:8]))
	if ents := len(buf) - runHeaderLen; ents%runEntryLen != 0 || ents/runEntryLen != runs {
		return nil, fmt.Errorf("chunk: corrupt run record: %d runs in %d bytes", runs, len(buf))
	}
	if runs == 0 {
		return nil, fmt.Errorf("chunk: corrupt run record: no runs")
	}
	offs := make([]int32, runs)
	lens := make([]int32, runs)
	vals := make([]float64, runs)
	prevEnd, total := 0, 0
	for i := 0; i < runs; i++ {
		ent := buf[runHeaderLen+runEntryLen*i:]
		start := prevEnd + int(binary.LittleEndian.Uint32(ent[0:4]))
		n := int(binary.LittleEndian.Uint32(ent[4:8]))
		if n <= 0 || start+n > capacity {
			return nil, fmt.Errorf("chunk: corrupt run record: run %d spans [%d,%d) beyond capacity %d", i, start, start+n, capacity)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(ent[8:16]))
		if math.IsNaN(v) {
			return nil, fmt.Errorf("chunk: corrupt run record: run %d holds Null", i)
		}
		offs[i], lens[i], vals[i] = int32(start), int32(n), v
		prevEnd = start + n
		total += n
	}
	if total != cells {
		return nil, fmt.Errorf("chunk: corrupt run record: %d cells in runs, header says %d", total, cells)
	}
	return &Chunk{cap: capacity, n: cells, runOffs: offs, runLens: lens, runVals: vals}, nil
}
