package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
)

// The text dump format is line-oriented CSV with a leading record tag:
//
//	dimension,<name>,<ordered|unordered>[,measure]
//	member,<dim>,<parentPath>,<name>
//	binding,<varyingDim>,<paramDim>
//	vs,<varyingDim>,<instancePath>,<ord1;ord2;…>
//	cell,<path1>,…,<pathN>,<value>
//
// Member paths use '/' separators; the empty path denotes the root.
// Records must appear in the order above (cells last). Lines starting
// with '#' are comments.

// Save writes a cube in the text dump format.
func Save(c *cube.Cube, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < c.NumDims(); i++ {
		d := c.Dim(i)
		ord := "unordered"
		if d.Ordered() {
			ord = "ordered"
		}
		if d.Measure() {
			fmt.Fprintf(bw, "dimension,%s,%s,measure\n", d.Name(), ord)
		} else {
			fmt.Fprintf(bw, "dimension,%s,%s\n", d.Name(), ord)
		}
		// Emit members in ID order, which is a valid topological order
		// (parents are created before children).
		for id := dimension.MemberID(1); int(id) < d.NumMembers(); id++ {
			m := d.Member(id)
			parent := ""
			if m.Parent != dimension.None {
				parent = d.Path(m.Parent)
			}
			fmt.Fprintf(bw, "member,%s,%s,%s\n", d.Name(), parent, m.Name)
		}
	}
	for _, b := range c.Bindings() {
		fmt.Fprintf(bw, "binding,%s,%s\n", b.Varying.Name(), b.Param.Name())
		for _, id := range b.Varying.Leaves() {
			vs, ok := b.Explicit(id)
			if !ok {
				continue
			}
			ords := make([]string, 0, vs.Len())
			vs.ForEach(func(i int) { ords = append(ords, strconv.Itoa(i)) })
			fmt.Fprintf(bw, "vs,%s,%s,%s\n", b.Varying.Name(), b.Varying.Path(id), strings.Join(ords, ";"))
		}
	}
	var saveErr error
	c.Store().NonNull(func(addr []int, v float64) bool {
		parts := make([]string, 0, c.NumDims()+2)
		parts = append(parts, "cell")
		for i, o := range addr {
			parts = append(parts, c.Dim(i).Path(c.Dim(i).Leaf(o).ID))
		}
		parts = append(parts, strconv.FormatFloat(v, 'g', -1, 64))
		if _, err := fmt.Fprintln(bw, strings.Join(parts, ",")); err != nil {
			saveErr = err
			return false
		}
		return true
	})
	if saveErr != nil {
		return saveErr
	}
	return bw.Flush()
}

// Load reads a cube from the text dump format. When chunkDims is
// non-nil the cube is backed by chunked storage with the given chunk
// edges (one per dimension, zero entries defaulted).
func Load(r io.Reader, chunkDims []int) (*cube.Cube, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var dims []*dimension.Dimension
	byName := map[string]*dimension.Dimension{}
	var bindings []*dimension.Binding
	bindByVarying := map[string]*dimension.Binding{}
	type cellRec struct {
		paths []string
		v     float64
	}
	var cells []cellRec
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		switch f[0] {
		case "dimension":
			if len(f) < 3 {
				return nil, fmt.Errorf("workload: line %d: bad dimension record", lineNo)
			}
			d := dimension.New(f[1], f[2] == "ordered")
			if len(f) > 3 && f[3] == "measure" {
				d.MarkMeasure()
			}
			if _, dup := byName[f[1]]; dup {
				return nil, fmt.Errorf("workload: line %d: duplicate dimension %q", lineNo, f[1])
			}
			dims = append(dims, d)
			byName[f[1]] = d
		case "member":
			if len(f) != 4 {
				return nil, fmt.Errorf("workload: line %d: bad member record", lineNo)
			}
			d := byName[f[1]]
			if d == nil {
				return nil, fmt.Errorf("workload: line %d: unknown dimension %q", lineNo, f[1])
			}
			if _, err := d.Add(f[2], f[3]); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
			}
		case "binding":
			if len(f) != 3 {
				return nil, fmt.Errorf("workload: line %d: bad binding record", lineNo)
			}
			v, p := byName[f[1]], byName[f[2]]
			if v == nil || p == nil {
				return nil, fmt.Errorf("workload: line %d: binding references unknown dimension", lineNo)
			}
			b := dimension.NewBinding(v, p)
			bindings = append(bindings, b)
			bindByVarying[f[1]] = b
		case "vs":
			if len(f) != 4 {
				return nil, fmt.Errorf("workload: line %d: bad vs record", lineNo)
			}
			b := bindByVarying[f[1]]
			if b == nil {
				return nil, fmt.Errorf("workload: line %d: vs before binding for %q", lineNo, f[1])
			}
			id, err := b.Varying.Lookup(f[2])
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
			}
			var ords []int
			if f[3] != "" {
				for _, s := range strings.Split(f[3], ";") {
					o, err := strconv.Atoi(s)
					if err != nil {
						return nil, fmt.Errorf("workload: line %d: bad ordinal %q", lineNo, s)
					}
					ords = append(ords, o)
				}
			}
			b.SetVS(id, ords...)
		case "cell":
			if len(f) < 3 {
				return nil, fmt.Errorf("workload: line %d: bad cell record", lineNo)
			}
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad value %q", lineNo, f[len(f)-1])
			}
			cells = append(cells, cellRec{paths: f[1 : len(f)-1], v: v})
		default:
			return nil, fmt.Errorf("workload: line %d: unknown record %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("workload: dump has no dimensions")
	}

	var c *cube.Cube
	if chunkDims != nil {
		extents := make([]int, len(dims))
		for i, d := range dims {
			extents[i] = d.NumLeaves()
		}
		cd := defaultChunkDims(extents, chunkDims)
		g, err := chunk.NewGeometry(extents, cd)
		if err != nil {
			return nil, err
		}
		c = cube.NewWithStore(chunk.NewStore(g), dims...)
	} else {
		c = cube.New(dims...)
	}
	for _, b := range bindings {
		if err := c.AddBinding(b); err != nil {
			return nil, err
		}
	}
	ids := make([]dimension.MemberID, len(dims))
	for _, rec := range cells {
		if len(rec.paths) != len(dims) {
			return nil, fmt.Errorf("workload: cell arity %d, schema arity %d", len(rec.paths), len(dims))
		}
		for i, p := range rec.paths {
			id, err := dims[i].Lookup(p)
			if err != nil {
				return nil, fmt.Errorf("workload: cell path: %w", err)
			}
			ids[i] = id
		}
		c.SetValue(ids, rec.v)
	}
	return c, nil
}
