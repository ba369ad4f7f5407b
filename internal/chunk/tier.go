package chunk

import (
	"encoding/binary"
	"errors"
	"sync"
)

// Tier is the storage layer beneath the buffer pool: a keyed store of
// serialized chunks that the pool faults from and evicts to. The spill
// file (SpillTo), the simulated disk (simdisk.Tier) and the persistent
// segment store (internal/segment) all implement it, so chunk.Store is
// indifferent to whether a miss is served by an append-only scratch
// file, a deterministic cost model, or a checksummed page-aligned
// segment on real storage.
//
// Implementations must be safe for concurrent use by themselves: the
// pool calls ReadChunkAt outside the store mutex (so distinct chunks'
// fault I/O overlaps) while WriteChunk, Remove and the metadata
// methods may run under it. A Tier must therefore never call back into
// the owning Store.
type Tier interface {
	// ReadChunkAt loads the chunk with the given canonical ID. It
	// returns (nil, 0, nil) when the tier does not hold the chunk. The
	// float64 is the read's modeled I/O cost in milliseconds (0 for
	// tiers that do real I/O — wall time is measured by the pool).
	ReadChunkAt(id int) (*Chunk, float64, error)
	// WriteChunk stores a chunk under the given ID, replacing any
	// previous copy. Read-only tiers return ErrTierReadOnly.
	WriteChunk(id int, c *Chunk) error
	// Remove deletes the tier's copy of a chunk. Removing an absent
	// chunk is a no-op. Read-only tiers return ErrTierReadOnly.
	Remove(id int) error
	// Contains reports whether the tier holds a chunk, without loading.
	Contains(id int) bool
	// IDs returns the canonical IDs of all chunks the tier holds, in
	// unspecified order.
	IDs() []int
	// Cells returns the cell count of a backed chunk without loading
	// it (0 when absent). Store.Len sizes non-resident chunks with it.
	Cells(id int) int
	// Len returns the number of chunks the tier holds.
	Len() int
	// Sync flushes buffered writes to stable storage where applicable.
	Sync() error
	// Close releases the tier's resources. The pool calls it from
	// Store.CloseSpill after faulting everything resident.
	Close() error
	// ReadOnly reports that WriteChunk/Remove are unsupported. The
	// pool keeps dirty chunks resident instead of evicting them to a
	// read-only tier, and tracks deletions on the side.
	ReadOnly() bool
}

// CloneableTier is implemented by tiers that can produce an independent
// view for Store.Clone, so cloning a pooled store does not force every
// chunk resident. CloneTier returns (nil, false) when a cheap clone is
// impossible, in which case Clone falls back to full materialization.
type CloneableTier interface {
	Tier
	CloneTier() (Tier, bool)
}

// DurableTier is implemented by tiers whose contents survive process
// restart (the segment store). The pool flags reads served by a
// durable tier in ReadInfo so fault spans and metrics can distinguish
// real storage I/O from scratch-file traffic.
type DurableTier interface {
	Tier
	Durable() bool
}

// ErrTierReadOnly is returned by WriteChunk/Remove on read-only tiers.
var ErrTierReadOnly = errors.New("chunk: tier is read-only")

// EncodeChunk serializes a chunk in the shared record layout, all
// little-endian: dense and sparse chunks as pair records (uint32 cell
// count, then uint32 offset + float64 bits per cell), run-encoded
// chunks as run records (top-bit-flagged uint32 run count, uint32 cell
// count, then delta start + length + value bits per run). The spill
// file and the segment store share this format, so a chunk round-trips
// bit-identically through either tier — and a run-encoded chunk's disk
// bytes shrink with it.
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

// RecordCells sizes an encoded chunk record (cell count) from its
// header, without decoding the cells. Pair records are sized from the
// byte length; run records carry the count in their header.
func RecordCells(rec []byte) int {
	if len(rec) < spillHeaderLen {
		return 0
	}
	if binary.LittleEndian.Uint32(rec)&runRecordFlag != 0 {
		if len(rec) < runHeaderLen {
			return 0
		}
		return int(binary.LittleEndian.Uint32(rec[4:8]))
	}
	return (len(rec) - spillHeaderLen) / spillCellLen
}
