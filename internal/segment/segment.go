// Package segment is the persistent storage tier: one immutable,
// checksummed, page-aligned segment file per published cube version,
// plus a crash-safe manifest (manifest.go) naming the versions a data
// directory holds. A segment file is the one chunk.Tier, so the buffer
// pool faults chunks straight off real storage — pin counts, LRU and
// fault-in dedup (the paper's §5.2 pebbling machinery) manage genuine
// I/O instead of simulated cost.
//
// File layout (all integers little-endian):
//
//	page 0        header: magic, geometry, region offsets, CRCs
//	page 1..      meta blob (opaque cube schema), page-aligned
//	...           chunk slots, one per non-empty chunk, page-aligned,
//	              each slot an EncodeChunk record
//	tail          slot index: 32-byte entries (id, cells, off, len, CRC)
//
// Every region is covered by a CRC-32: the header checks itself, the
// meta and index CRCs live in the header, and each slot's CRC lives in
// its index entry and is verified on every read (or all up front with
// OpenOptions.VerifyChunks). A segment that fails any check refuses to
// open — the caller falls back to an older version (fail closed)
// rather than serving corrupt cells.
//
// Write path: Create builds the file at <path>.tmp, fsyncs, renames
// into place and fsyncs the directory, so a crash mid-write never
// leaves a live *.seg truncated.
//
// Read path: pread by default; OpenOptions.Mmap maps the file instead
// (a runtime flag, no build tags — syscall.Mmap with a silent pread
// fallback when the platform refuses).
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"whatifolap/internal/chunk"
)

const (
	// Magic identifies a segment file (version in the last two bytes).
	// v02 segments may contain run-encoded chunk records (the
	// top-bit-flagged record kind EncodeChunk emits for run-encoded
	// chunks); v01 segments predate them. Open accepts both — the record
	// decoder distinguishes the kinds per slot — while Create always
	// stamps the current version.
	Magic = "WOSEGv02"
	// MagicV1 is the previous version's magic, still accepted by Open so
	// segment files written before run encoding restore unchanged.
	MagicV1 = "WOSEGv01"
	// PageSize aligns the meta blob and every chunk slot. 4 KiB matches
	// the common filesystem block, so one slot read touches no
	// neighbouring slot's pages.
	PageSize = 4096

	headerLen    = 76 // fixed fields incl. trailing header CRC
	indexEntrySz = 32
)

// slotEntry locates one chunk's record inside the segment.
type slotEntry struct {
	id    int
	cells int
	off   int64
	len   int64
	crc   uint32
}

// header is the decoded page-0 header.
type header struct {
	chunkCap int
	numSlots int
	metaOff  int64
	metaLen  int64
	indexOff int64
	indexLen int64
	fileSize int64
	metaCRC  uint32
	indexCRC uint32
}

func alignPage(off int64) int64 {
	if r := off % PageSize; r != 0 {
		return off + PageSize - r
	}
	return off
}

// Create writes a segment file atomically: the chunks named by ids
// (nil or empty ones are skipped), read through the given callback,
// plus an opaque meta blob (the cube schema). The file appears at path
// only after its contents are fully on disk; a crash mid-Create leaves
// at most a stale <path>.tmp.
func Create(path string, chunkCap int, meta []byte, ids []int, read func(id int) *chunk.Chunk) error {
	if chunkCap <= 0 {
		return fmt.Errorf("segment: chunk capacity must be positive, got %d", chunkCap)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// Best-effort removal of the temp file on any failure path.
	defer os.Remove(tmp)
	defer f.Close()

	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)

	h := header{chunkCap: chunkCap, metaOff: PageSize, metaLen: int64(len(meta))}
	h.metaCRC = crc32.ChecksumIEEE(meta)
	if _, err := f.WriteAt(meta, h.metaOff); err != nil {
		return err
	}
	cursor := alignPage(h.metaOff + h.metaLen)

	entries := make([]slotEntry, 0, len(sorted))
	for _, id := range sorted {
		c := read(id)
		if c == nil || c.Len() == 0 {
			continue
		}
		rec := chunk.EncodeChunk(c)
		if _, err := f.WriteAt(rec, cursor); err != nil {
			return err
		}
		entries = append(entries, slotEntry{
			id:    id,
			cells: c.Len(),
			off:   cursor,
			len:   int64(len(rec)),
			crc:   crc32.ChecksumIEEE(rec),
		})
		cursor = alignPage(cursor + int64(len(rec)))
	}

	h.numSlots = len(entries)
	h.indexOff = cursor
	h.indexLen = int64(len(entries) * indexEntrySz)
	index := make([]byte, h.indexLen)
	for i, e := range entries {
		b := index[i*indexEntrySz:]
		binary.LittleEndian.PutUint32(b[0:4], uint32(e.id))
		binary.LittleEndian.PutUint32(b[4:8], uint32(e.cells))
		binary.LittleEndian.PutUint64(b[8:16], uint64(e.off))
		binary.LittleEndian.PutUint64(b[16:24], uint64(e.len))
		binary.LittleEndian.PutUint32(b[24:28], e.crc)
	}
	h.indexCRC = crc32.ChecksumIEEE(index)
	if _, err := f.WriteAt(index, h.indexOff); err != nil {
		return err
	}
	h.fileSize = h.indexOff + h.indexLen

	hb := make([]byte, PageSize)
	copy(hb, Magic)
	binary.LittleEndian.PutUint32(hb[8:12], PageSize)
	binary.LittleEndian.PutUint32(hb[12:16], uint32(h.chunkCap))
	binary.LittleEndian.PutUint32(hb[16:20], uint32(h.numSlots))
	binary.LittleEndian.PutUint64(hb[24:32], uint64(h.metaOff))
	binary.LittleEndian.PutUint64(hb[32:40], uint64(h.metaLen))
	binary.LittleEndian.PutUint64(hb[40:48], uint64(h.indexOff))
	binary.LittleEndian.PutUint64(hb[48:56], uint64(h.indexLen))
	binary.LittleEndian.PutUint64(hb[56:64], uint64(h.fileSize))
	binary.LittleEndian.PutUint32(hb[64:68], h.metaCRC)
	binary.LittleEndian.PutUint32(hb[68:72], h.indexCRC)
	binary.LittleEndian.PutUint32(hb[72:76], crc32.ChecksumIEEE(hb[:headerLen-4]))
	if _, err := f.WriteAt(hb, 0); err != nil {
		return err
	}

	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// PageOut writes s's chunks to a new segment file at path and attaches
// it as s's tier under a resident budget of budgetBytes: chunks beyond
// the budget leave memory and fault back from the file on access.
// Writes made afterwards stay resident — the file never changes.
func PageOut(s *chunk.Store, path string, budgetBytes int) error {
	if err := Create(path, s.Geometry().ChunkCap(), nil, s.ChunkIDs(), s.PeekChunk); err != nil {
		return err
	}
	sf, err := Open(path, OpenOptions{})
	if err != nil {
		return err
	}
	if err := s.AttachTier(sf, budgetBytes); err != nil {
		sf.Close()
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// Mmap maps the segment for reads instead of pread. Falls back to
	// pread silently when the platform refuses the mapping.
	Mmap bool
	// VerifyChunks checks every slot's CRC up front instead of on
	// first read — slower Open, earliest possible corruption report.
	VerifyChunks bool
}

// File is an open segment: an immutable chunk.Tier whose contents
// survive restart. Safe for concurrent readers; the slot map is never
// mutated after Open.
type File struct {
	path     string
	meta     []byte
	chunkCap int
	slots    map[int]slotEntry

	f    *os.File
	data []byte // non-nil when mmap'd

	mu     sync.Mutex
	refs   int
	closed bool
}

// Open validates and opens a segment file. The header and index CRCs
// are always checked; slot CRCs are checked per read (and up front
// with VerifyChunks). Any mismatch fails the open — corrupt segments
// never serve.
func (o OpenOptions) open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hb := make([]byte, headerLen)
	if _, err := f.ReadAt(hb, 0); err != nil {
		return nil, fmt.Errorf("segment %s: short header: %w", path, err)
	}
	if m := string(hb[:8]); m != Magic && m != MagicV1 {
		return nil, fmt.Errorf("segment %s: bad magic %q", path, hb[:8])
	}
	if got := binary.LittleEndian.Uint32(hb[72:76]); got != crc32.ChecksumIEEE(hb[:headerLen-4]) {
		return nil, fmt.Errorf("segment %s: header CRC mismatch", path)
	}
	if ps := binary.LittleEndian.Uint32(hb[8:12]); ps != PageSize {
		return nil, fmt.Errorf("segment %s: page size %d, want %d", path, ps, PageSize)
	}
	h := header{
		chunkCap: int(binary.LittleEndian.Uint32(hb[12:16])),
		numSlots: int(binary.LittleEndian.Uint32(hb[16:20])),
		metaOff:  int64(binary.LittleEndian.Uint64(hb[24:32])),
		metaLen:  int64(binary.LittleEndian.Uint64(hb[32:40])),
		indexOff: int64(binary.LittleEndian.Uint64(hb[40:48])),
		indexLen: int64(binary.LittleEndian.Uint64(hb[48:56])),
		fileSize: int64(binary.LittleEndian.Uint64(hb[56:64])),
		metaCRC:  binary.LittleEndian.Uint32(hb[64:68]),
		indexCRC: binary.LittleEndian.Uint32(hb[68:72]),
	}
	if h.fileSize > st.Size() {
		return nil, fmt.Errorf("segment %s: truncated: header says %d bytes, file has %d", path, h.fileSize, st.Size())
	}
	if h.indexLen != int64(h.numSlots*indexEntrySz) {
		return nil, fmt.Errorf("segment %s: index length %d does not fit %d slots", path, h.indexLen, h.numSlots)
	}
	// A matching CRC catches damage, not hostile values: region offsets
	// and lengths size the reads below, so each region must lie inside
	// the file (compared without overflow: they are arbitrary int64s).
	inFile := func(off, n int64) bool { return off >= 0 && n >= 0 && off <= h.fileSize && n <= h.fileSize-off }
	if !inFile(h.metaOff, h.metaLen) || !inFile(h.indexOff, h.indexLen) {
		return nil, fmt.Errorf("segment %s: meta [%d,+%d) or index [%d,+%d) outside the %d-byte file",
			path, h.metaOff, h.metaLen, h.indexOff, h.indexLen, h.fileSize)
	}

	meta := make([]byte, h.metaLen)
	if _, err := f.ReadAt(meta, h.metaOff); err != nil {
		return nil, fmt.Errorf("segment %s: meta read: %w", path, err)
	}
	if crc32.ChecksumIEEE(meta) != h.metaCRC {
		return nil, fmt.Errorf("segment %s: meta CRC mismatch", path)
	}
	index := make([]byte, h.indexLen)
	if _, err := f.ReadAt(index, h.indexOff); err != nil {
		return nil, fmt.Errorf("segment %s: index read: %w", path, err)
	}
	if crc32.ChecksumIEEE(index) != h.indexCRC {
		return nil, fmt.Errorf("segment %s: index CRC mismatch", path)
	}
	slots := make(map[int]slotEntry, h.numSlots)
	for i := 0; i < h.numSlots; i++ {
		b := index[i*indexEntrySz:]
		e := slotEntry{
			id:    int(binary.LittleEndian.Uint32(b[0:4])),
			cells: int(binary.LittleEndian.Uint32(b[4:8])),
			off:   int64(binary.LittleEndian.Uint64(b[8:16])),
			len:   int64(binary.LittleEndian.Uint64(b[16:24])),
			crc:   binary.LittleEndian.Uint32(b[24:28]),
		}
		if e.off < PageSize || !inFile(e.off, e.len) {
			return nil, fmt.Errorf("segment %s: slot %d span [%d,%d) outside file", path, e.id, e.off, e.off+e.len)
		}
		slots[e.id] = e
	}

	sf := &File{
		path:     path,
		meta:     meta,
		chunkCap: h.chunkCap,
		slots:    slots,
		f:        f,
		refs:     1,
	}
	if o.Mmap {
		if data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED); err == nil {
			sf.data = data
		}
	}
	if o.VerifyChunks {
		for _, e := range slots {
			if err := sf.withSlot(e, func([]byte) error { return nil }); err != nil {
				sf.closeLocked()
				return nil, err
			}
		}
	}
	ok = true
	return sf, nil
}

// Open opens a segment file with the given options.
func Open(path string, opts OpenOptions) (*File, error) { return opts.open(path) }

// Meta returns the opaque meta blob (the serialized cube schema).
func (sf *File) Meta() []byte { return sf.meta }

// ChunkCap returns the chunk capacity the segment was written with.
func (sf *File) ChunkCap() int { return sf.chunkCap }

// Path returns the file path the segment was opened from.
func (sf *File) Path() string { return sf.path }

// Mapped reports whether reads go through an mmap'd view.
func (sf *File) Mapped() bool { return sf.data != nil }

// withSlot fetches and CRC-checks one slot's record and hands it to fn.
// The bytes are only fn's to read, and only until it returns: they are
// a view of the mapping, or a recycled buffer filled by pread.
func (sf *File) withSlot(e slotEntry, fn func(rec []byte) error) error {
	var rec []byte
	if sf.data != nil {
		if e.off+e.len > int64(len(sf.data)) {
			return fmt.Errorf("segment %s: slot %d beyond mapping", sf.path, e.id)
		}
		rec = sf.data[e.off : e.off+e.len]
	} else {
		buf := chunk.RecordBuf(int(e.len))
		defer chunk.ReleaseRecordBuf(buf)
		rec = *buf
		if _, err := sf.f.ReadAt(rec, e.off); err != nil {
			return fmt.Errorf("segment %s: slot %d read: %w", sf.path, e.id, err)
		}
	}
	if crc32.ChecksumIEEE(rec) != e.crc {
		return fmt.Errorf("segment %s: slot %d CRC mismatch", sf.path, e.id)
	}
	return fn(rec)
}

// ReadChunkAt implements chunk.Tier. Every read re-verifies the slot
// CRC — a bit flip on disk surfaces as an error, never as a wrong
// cell. The float64 result is always 0 (see chunk.Tier).
func (sf *File) ReadChunkAt(id int) (*chunk.Chunk, float64, error) {
	e, ok := sf.slots[id]
	if !ok {
		return nil, 0, nil
	}
	var c *chunk.Chunk
	err := sf.withSlot(e, func(rec []byte) (err error) {
		if c, err = chunk.DecodeChunk(rec, sf.chunkCap); err != nil {
			err = fmt.Errorf("segment %s: slot %d: %w", sf.path, id, err)
		}
		return err
	})
	return c, 0, err
}

// Contains implements chunk.Tier.
func (sf *File) Contains(id int) bool {
	_, ok := sf.slots[id]
	return ok
}

// IDs implements chunk.Tier.
func (sf *File) IDs() []int {
	ids := make([]int, 0, len(sf.slots))
	for id := range sf.slots {
		ids = append(ids, id)
	}
	return ids
}

// Cells implements chunk.Tier: slot sizes come from the index, no I/O.
func (sf *File) Cells(id int) int {
	if e, ok := sf.slots[id]; ok {
		return e.cells
	}
	return 0
}

// CloneTier implements chunk.Tier. A segment is immutable, so
// the clone is the segment itself with another reference: Store.Clone
// on a segment-backed cube shares the file, and the last Close
// releases it.
func (sf *File) CloneTier() (chunk.Tier, bool) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.closed {
		return nil, false
	}
	sf.refs++
	return sf, true
}

// Close implements chunk.Tier, dropping one reference; the file (and
// any mapping) is released when the last reference closes.
func (sf *File) Close() error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	sf.refs--
	if sf.refs > 0 || sf.closed {
		return nil
	}
	return sf.closeLocked()
}

func (sf *File) closeLocked() error {
	sf.closed = true
	var err error
	if sf.data != nil {
		err = syscall.Munmap(sf.data)
		sf.data = nil
	}
	if cerr := sf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
