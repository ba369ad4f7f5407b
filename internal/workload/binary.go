package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// Binary cube format. The text dump (Save/Load) is human-auditable but
// slow at benchmark scale; the binary format stores the same content —
// dimensions, bindings, validity sets, and cells (chunk-wise, sparse) —
// compactly. Rules are not serialized by either format; reattach them
// after loading.
//
// Layout (little endian):
//
//	magic "WOLAPBIN" | u16 version
//	u16 ndims
//	  per dim: str name | u8 flags (1=ordered, 2=measure) |
//	           u32 nMembers | per non-root member: i32 parent | str name
//	u16 nbindings
//	  per binding: u16 varyingDim | u16 paramDim | u32 nVS |
//	               per VS: i32 member | u32 nOrds | u32 ords…
//	geometry: u16 ndims | u32 extents… | u32 chunkDims…
//	u32 nchunks | per chunk: u32 id | u32 nCells | per cell: u32 off | f64 v
const (
	binMagic   = "WOLAPBIN"
	binVersion = 1
)

// SaveBinary writes a chunk-backed cube in the binary format.
func SaveBinary(c *cube.Cube, w io.Writer) error { return saveBinary(c, w, true) }

// SaveSchema writes only the cube's schema — dimensions, bindings,
// validity sets, and chunk geometry — as a binary stream with zero
// chunks. The segment store embeds this blob in each segment file's
// meta region: the schema travels with the cells, so a data directory
// restores cubes without re-ingest. LoadSchema (or LoadBinary) reads
// it back into a cube with an empty chunk store.
func SaveSchema(c *cube.Cube, w io.Writer) error { return saveBinary(c, w, false) }

func saveBinary(c *cube.Cube, w io.Writer, withChunks bool) error {
	st, ok := c.Store().(*chunk.Store)
	if !ok {
		return fmt.Errorf("workload: binary format requires a chunk-backed cube, got %T", c.Store())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	putU16 := func(v int) { var b [2]byte; le.PutUint16(b[:], uint16(v)); bw.Write(b[:]) }
	putU32 := func(v int) { var b [4]byte; le.PutUint32(b[:], uint32(v)); bw.Write(b[:]) }
	putI32 := func(v int32) { var b [4]byte; le.PutUint32(b[:], uint32(v)); bw.Write(b[:]) }
	putF64 := func(v float64) { var b [8]byte; le.PutUint64(b[:], math.Float64bits(v)); bw.Write(b[:]) }
	putStr := func(s string) {
		if len(s) > 65535 {
			s = s[:65535]
		}
		putU16(len(s))
		bw.WriteString(s)
	}

	putU16(binVersion)
	putU16(c.NumDims())
	for i := 0; i < c.NumDims(); i++ {
		d := c.Dim(i)
		putStr(d.Name())
		flags := 0
		if d.Ordered() {
			flags |= 1
		}
		if d.Measure() {
			flags |= 2
		}
		bw.WriteByte(byte(flags))
		putU32(d.NumMembers())
		for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
			m := d.Member(id)
			putI32(int32(m.Parent))
			putStr(m.Name)
		}
	}
	putU16(len(c.Bindings()))
	for _, b := range c.Bindings() {
		putU16(c.DimIndex(b.Varying.Name()))
		putU16(c.DimIndex(b.Param.Name()))
		leaves, n := b.Varying.Leaves(), 0
		for _, id := range leaves {
			if _, ok := b.Explicit(id); ok {
				n++
			}
		}
		putU32(n)
		for _, id := range leaves {
			vs, ok := b.Explicit(id)
			if !ok {
				continue
			}
			putI32(int32(id))
			putU32(vs.Len())
			vs.ForEach(func(o int) { putU32(o) })
		}
	}
	g := st.Geometry()
	putU16(g.NumDims())
	for _, e := range g.Extents {
		putU32(e)
	}
	for _, cd := range g.ChunkDims {
		putU32(cd)
	}
	if !withChunks {
		putU32(0)
		return bw.Flush()
	}
	ids := st.ChunkIDs()
	putU32(len(ids))
	for _, id := range ids {
		ch := st.PeekChunk(id)
		putU32(id)
		putU32(ch.Len())
		ch.ForEach(func(off int, v float64) bool {
			putU32(off)
			putF64(v)
			return true
		})
	}
	return bw.Flush()
}

// LoadSchema reads a schema stream written by SaveSchema into a cube
// backed by an empty chunk store (chunks come from a storage tier).
// Any binary cube stream is accepted; cells, if present, load too.
func LoadSchema(r io.Reader) (*cube.Cube, error) { return LoadBinary(r) }

// binReader wraps error-sticky reads over a buffered reader.
type binReader struct {
	r   *bufio.Reader
	err error
}

func (br *binReader) bytes(n int) []byte {
	if br.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br.r, b); err != nil {
		br.err = err
		return nil
	}
	return b
}

func (br *binReader) u8() int {
	b := br.bytes(1)
	if b == nil {
		return 0
	}
	return int(b[0])
}
func (br *binReader) u16() int {
	b := br.bytes(2)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint16(b))
}
func (br *binReader) u32() int {
	b := br.bytes(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}
func (br *binReader) i32() int32 {
	b := br.bytes(4)
	if b == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b))
}
func (br *binReader) f64() float64 {
	b := br.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
func (br *binReader) str() string {
	n := br.u16()
	b := br.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// LoadBinary reads a cube written by SaveBinary. The stream is
// untrusted — a segment's meta region or a dump named on the command
// line — so every count is bounded by the bytes that follow it (no
// slice is sized from a count before its elements are read), every
// ordinal and member id is checked against its dimension, and a
// malformed stream is an error, never a panic.
func LoadBinary(r io.Reader) (*cube.Cube, error) {
	br := &binReader{r: bufio.NewReader(r)}
	if magic := br.bytes(len(binMagic)); string(magic) != binMagic {
		if br.err != nil {
			return nil, fmt.Errorf("workload: binary header: %w", br.err)
		}
		return nil, fmt.Errorf("workload: bad magic %q", magic)
	}
	if v := br.u16(); v != binVersion {
		return nil, fmt.Errorf("workload: unsupported binary version %d", v)
	}
	ndims := br.u16()
	if ndims == 0 || ndims > 64 {
		return nil, fmt.Errorf("workload: implausible dimension count %d", ndims)
	}
	dims := make([]*dimension.Dimension, ndims)
	seen := make(map[string]bool, ndims)
	for i := range dims {
		name := br.str()
		if seen[name] {
			return nil, fmt.Errorf("workload: duplicate dimension %q", name)
		}
		seen[name] = true
		flags := br.u8()
		d := dimension.New(name, flags&1 != 0)
		if flags&2 != 0 {
			d.MarkMeasure()
		}
		nMembers := br.u32()
		if br.err != nil {
			return nil, br.err
		}
		for id := 1; id < nMembers; id++ {
			parent := br.i32()
			mname := br.str()
			if br.err != nil {
				return nil, br.err
			}
			if parent < 0 || int(parent) >= id {
				return nil, fmt.Errorf("workload: member %d of %s references invalid parent %d", id, name, parent)
			}
			parentPath := d.Path(dimension.MemberID(parent))
			if _, err := d.Add(parentPath, mname); err != nil {
				return nil, fmt.Errorf("workload: rebuilding %s: %w", name, err)
			}
		}
		dims[i] = d
	}
	nBind := br.u16()
	type bindRec struct {
		vi, pi int
		vs     map[dimension.MemberID][]int
	}
	var binds []bindRec
	for i := 0; i < nBind; i++ {
		rec := bindRec{vi: br.u16(), pi: br.u16(), vs: map[dimension.MemberID][]int{}}
		if br.err != nil {
			return nil, br.err
		}
		if rec.vi >= ndims || rec.pi >= ndims {
			return nil, fmt.Errorf("workload: binding references dimension out of range")
		}
		if rec.vi == rec.pi {
			return nil, fmt.Errorf("workload: binding of %s to itself", dims[rec.vi].Name())
		}
		varying, param := dims[rec.vi], dims[rec.pi]
		nVS := br.u32()
		for j := 0; j < nVS; j++ {
			id := br.i32()
			nOrds := br.u32()
			if br.err != nil {
				return nil, br.err
			}
			if id < 0 || int(id) >= varying.NumMembers() {
				return nil, fmt.Errorf("workload: validity set references member %d outside dimension %s", id, varying.Name())
			}
			// Grow as the ordinals arrive: nOrds is only a claim.
			var ords []int
			for k := 0; k < nOrds; k++ {
				o := br.u32()
				if br.err != nil {
					return nil, br.err
				}
				if o >= param.NumLeaves() {
					return nil, fmt.Errorf("workload: validity ordinal %d outside the %d leaves of %s", o, param.NumLeaves(), param.Name())
				}
				ords = append(ords, o)
			}
			rec.vs[dimension.MemberID(id)] = ords
		}
		binds = append(binds, rec)
	}
	gn := br.u16()
	if gn != ndims {
		return nil, fmt.Errorf("workload: geometry arity %d does not match %d dimensions", gn, ndims)
	}
	extents := make([]int, gn)
	for i := range extents {
		extents[i] = br.u32()
	}
	chunkDims := make([]int, gn)
	for i := range chunkDims {
		chunkDims[i] = br.u32()
	}
	if br.err != nil {
		return nil, br.err
	}
	for i, d := range dims {
		if d.NumLeaves() != extents[i] {
			return nil, fmt.Errorf("workload: dimension %s has %d leaves but geometry says %d", d.Name(), d.NumLeaves(), extents[i])
		}
	}
	g, err := chunk.NewGeometry(extents, chunkDims)
	if err != nil {
		return nil, err
	}
	st := chunk.NewStore(g)
	c := cube.NewWithStore(st, dims...)
	for _, rec := range binds {
		b := dimension.NewBinding(dims[rec.vi], dims[rec.pi])
		for id, ords := range rec.vs {
			b.SetVS(id, ords...)
		}
		if err := c.AddBinding(b); err != nil {
			return nil, err
		}
	}
	nChunks := br.u32()
	for i := 0; i < nChunks; i++ {
		id := br.u32()
		nCells := br.u32()
		if br.err != nil {
			return nil, br.err
		}
		if id >= g.NumChunks() {
			return nil, fmt.Errorf("workload: chunk id %d outside geometry (%d chunks)", id, g.NumChunks())
		}
		ch := chunk.NewSparse(g.ChunkCap())
		for j := 0; j < nCells; j++ {
			off := br.u32()
			v := br.f64()
			if br.err != nil {
				return nil, br.err
			}
			if off >= g.ChunkCap() {
				return nil, fmt.Errorf("workload: cell offset %d outside chunk capacity %d", off, g.ChunkCap())
			}
			ch.Set(off, v)
		}
		st.PutChunk(id, ch)
	}
	if br.err != nil {
		return nil, br.err
	}
	return c, nil
}
