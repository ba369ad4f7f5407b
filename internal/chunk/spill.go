package chunk

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Spill file: an append-only scratch Tier. SpillTo backs a Store with
// one so the resident set fits a memory budget; rewritten chunks
// supersede older spans. It is a cache extension, not a durability
// format — use workload.SaveBinary or the segment store
// (internal/segment) for persistence.

// Spill record layout, shared by encodeChunk, decodeChunk and the
// tiers that size chunks without loading them (see RecordCells). Two
// record kinds share the format, discriminated by the top bit of the
// leading uint32:
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
	// spillHeaderLen is the pair-record header: a uint32 cell count.
	spillHeaderLen = 4
	// spillCellLen is one serialized cell: uint32 offset + float64 bits.
	spillCellLen = 12
	// runRecordFlag marks a run record in the leading uint32.
	runRecordFlag = uint32(1) << 31
	// runHeaderLen is the run-record header: flagged run count + cells.
	runHeaderLen = 8
	// runEntryLen is one serialized run: start delta, length, value bits.
	runEntryLen = 16
)

// span locates one serialized chunk in the spill file. cells is carried
// in the index because a run record's cell count cannot be derived from
// its byte length alone.
type span struct {
	off   int64
	len   int64
	cells int
}

// spillShared is the part of a spill file shared between a writable
// tier and its read-only clones: the file handle, the append cursor,
// and the reference count that decides when Close really closes.
// Existing spans are immutable (the file is append-only), so clones
// read concurrently with the parent's appends without coordination.
type spillShared struct {
	mu     sync.Mutex
	f      *os.File
	end    int64
	refs   int
	closed bool
}

// reserve claims len bytes at the end of the file for one record.
func (sh *spillShared) reserve(n int64) int64 {
	sh.mu.Lock()
	off := sh.end
	sh.end += n
	sh.mu.Unlock()
	return off
}

// release drops one reference, closing the file on the last one.
func (sh *spillShared) release() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.refs--
	if sh.refs > 0 || sh.closed {
		return nil
	}
	sh.closed = true
	return sh.f.Close()
}

// spillFile is the scratch-file Tier. Each view (the original and any
// clones) has a private span index over the shared append-only file;
// the index is guarded by mu, file I/O runs outside it (ReadAt and
// WriteAt are safe at distinct offsets).
type spillFile struct {
	mu       sync.Mutex
	shared   *spillShared
	index    map[int]span // chunk id -> file span
	chunkCap int
	readonly bool
}

// newSpillFile creates (truncating) the scratch file at path.
func newSpillFile(path string, chunkCap int) (*spillFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillFile{
		shared:   &spillShared{f: f, refs: 1},
		index:    make(map[int]span),
		chunkCap: chunkCap,
	}, nil
}

// ReadChunkAt implements Tier. The modeled cost is 0: a spill read is
// real I/O, measured by the pool as fault wall time.
func (t *spillFile) ReadChunkAt(id int) (*Chunk, float64, error) {
	t.mu.Lock()
	sp, ok := t.index[id]
	t.mu.Unlock()
	if !ok {
		return nil, 0, nil
	}
	buf := RecordBuf(int(sp.len))
	defer ReleaseRecordBuf(buf)
	if _, err := t.shared.f.ReadAt(*buf, sp.off); err != nil {
		return nil, 0, err
	}
	c, err := decodeChunk(*buf, t.chunkCap)
	if err != nil {
		return nil, 0, err
	}
	return c, 0, nil
}

// WriteChunk implements Tier: append the record, then publish the new
// span. A concurrent reader of the superseded span still sees a valid
// (stale) record — the file is append-only.
func (t *spillFile) WriteChunk(id int, c *Chunk) error {
	if t.readonly {
		return ErrTierReadOnly
	}
	buf := encodeChunk(c)
	off := t.shared.reserve(int64(len(buf)))
	if _, err := t.shared.f.WriteAt(buf, off); err != nil {
		return err
	}
	t.mu.Lock()
	t.index[id] = span{off: off, len: int64(len(buf)), cells: c.Len()}
	t.mu.Unlock()
	return nil
}

// Remove implements Tier. The superseded span is leaked (append-only
// file); the scratch file is deleted wholesale on Close.
func (t *spillFile) Remove(id int) error {
	if t.readonly {
		return ErrTierReadOnly
	}
	t.mu.Lock()
	delete(t.index, id)
	t.mu.Unlock()
	return nil
}

// Contains implements Tier.
func (t *spillFile) Contains(id int) bool {
	t.mu.Lock()
	_, ok := t.index[id]
	t.mu.Unlock()
	return ok
}

// IDs implements Tier.
func (t *spillFile) IDs() []int {
	t.mu.Lock()
	ids := make([]int, 0, len(t.index))
	for id := range t.index {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	return ids
}

// Cells implements Tier: sized from the span index, no I/O.
func (t *spillFile) Cells(id int) int {
	t.mu.Lock()
	sp, ok := t.index[id]
	t.mu.Unlock()
	if !ok {
		return 0
	}
	return sp.cells
}

// Len implements Tier.
func (t *spillFile) Len() int {
	t.mu.Lock()
	n := len(t.index)
	t.mu.Unlock()
	return n
}

// Sync implements Tier. A scratch file needs no durability barrier.
func (t *spillFile) Sync() error { return nil }

// Close implements Tier, dropping this view's reference on the shared
// file; the file really closes when the last view goes.
func (t *spillFile) Close() error { return t.shared.release() }

// ReadOnly implements Tier.
func (t *spillFile) ReadOnly() bool { return t.readonly }

// CloneTier implements CloneableTier: a read-only view sharing the
// append-only file, with a private snapshot of the span index. Spans
// are immutable once written, so the view stays valid however the
// parent appends afterwards.
func (t *spillFile) CloneTier() (Tier, bool) {
	t.shared.mu.Lock()
	if t.shared.closed {
		t.shared.mu.Unlock()
		return nil, false
	}
	t.shared.refs++
	t.shared.mu.Unlock()
	t.mu.Lock()
	idx := make(map[int]span, len(t.index))
	for id, sp := range t.index {
		idx[id] = sp
	}
	t.mu.Unlock()
	return &spillFile{
		shared:   t.shared,
		index:    idx,
		chunkCap: t.chunkCap,
		readonly: true,
	}, true
}

// SpillTo attaches a backing scratch file and a resident-memory budget
// to the store. Chunks beyond the budget are serialized to the file
// and loaded back on access. The file is truncated. A store can have
// at most one backing tier; calling SpillTo (or AttachTier) twice is
// an error.
func (s *Store) SpillTo(path string, budgetBytes int) error {
	if s.pool != nil {
		return fmt.Errorf("chunk: store already has a backing tier")
	}
	if budgetBytes <= 0 {
		return fmt.Errorf("chunk: spill budget must be positive, got %d", budgetBytes)
	}
	t, err := newSpillFile(path, s.geom.ChunkCap())
	if err != nil {
		return err
	}
	return s.AttachTier(t, budgetBytes)
}

// encodeChunk serializes a chunk: run-encoded chunks keep their runs
// (a run record), everything else flattens to the pair format, written
// straight from the representation into an exact-size buffer.
func encodeChunk(c *Chunk) []byte {
	if c.runOffs != nil {
		return encodeRunRecord(c)
	}
	buf := make([]byte, spillHeaderLen+spillCellLen*c.n)
	binary.LittleEndian.PutUint32(buf, uint32(c.n))
	cells := buf[spillHeaderLen:]
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
	return cells[spillCellLen:]
}

// decodeChunk deserializes a record written by encodeChunk into the
// chunk it will end as, in one pass: a run record restores run-encoded
// (a tier fault never silently decompresses), a pair record whose count
// is past sparseThreshold fills one dense array by offset, any other
// fills exact-length sparse slices. The chunk shares no memory with buf.
//
// Only records encodeChunk can emit are accepted: the byte length must
// match the header, offsets must ascend strictly below capacity, and no
// value is Null. Anything else is reported as corrupt, never repaired.
// Allocation is bounded by the record's own length — the dense array is
// made only when count > capacity/4, i.e. when the record is already
// longer than 3 bytes per cell of capacity — so a hostile header cannot
// size it.
func decodeChunk(buf []byte, capacity int) (*Chunk, error) {
	if len(buf) < spillHeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	head := binary.LittleEndian.Uint32(buf)
	if head&runRecordFlag != 0 {
		return decodeRunRecord(buf, capacity)
	}
	n := int(head)
	cells := buf[spillHeaderLen:]
	if len(cells)%spillCellLen != 0 || len(cells)/spillCellLen != n {
		return nil, fmt.Errorf("chunk: corrupt spill record: %d cells in %d bytes", n, len(buf))
	}
	c := &Chunk{cap: capacity, n: n}
	if n == 0 {
		return c, nil
	}
	dense := c.Occupancy() > sparseThreshold
	if dense {
		c.dense = make([]float64, capacity)
		nullFill(c.dense)
	} else {
		c.offs = make([]int32, n)
		c.vals = make([]float64, n)
	}
	prev := -1
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint32(cells))
		v := math.Float64frombits(binary.LittleEndian.Uint64(cells[4:]))
		cells = cells[spillCellLen:]
		switch {
		case off >= capacity:
			return nil, fmt.Errorf("chunk: corrupt spill record: offset %d beyond capacity %d", off, capacity)
		case off <= prev:
			return nil, fmt.Errorf("chunk: corrupt spill record: offset %d after %d, not ascending", off, prev)
		case math.IsNaN(v):
			return nil, fmt.Errorf("chunk: corrupt spill record: offset %d holds Null", off)
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
