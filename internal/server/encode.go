package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"

	"whatifolap/internal/result"
)

// bodyBufs holds the scratch buffers query bodies are encoded into; the
// cache keeps an exact-size copy.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers bodyBufs keeps, so that one huge grid
// does not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// encodeQueryResponse returns the body of a successful query: the bytes
// json.Marshal writes for the queryResponse of head, g's labels and
// values (⊥ as null) and qs, built by appendQueryResponse in a pooled
// buffer and copied out at its size.
func encodeQueryResponse(head responseHead, g *result.Grid, qs queryStats) ([]byte, error) {
	bp := bodyBufs.Get().(*[]byte)
	b, err := appendQueryResponse((*bp)[:0], head, g, qs)
	var body []byte
	if err == nil {
		body = bytes.Clone(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
	return body, err
}

// appendQueryResponse appends to b the JSON encoding of a query response,
// byte for byte what encoding/json writes for the queryResponse it
// describes — field order, omitempty fields, null for a nil label list
// and for ⊥, encoding/json's float format — but without a pointer per
// cell or reflection. A value encoding/json refuses (±Inf) fails with
// the error it returns.
func appendQueryResponse(b []byte, head responseHead, g *result.Grid, qs queryStats) ([]byte, error) {
	b = append(b, `{"cube":`...)
	b = appendJSONString(b, head.Cube)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, head.Version, 10)
	if head.Scenario != "" {
		b = append(b, `,"scenario":`...)
		b = appendJSONString(b, head.Scenario)
	}
	if head.ScenarioRevision != nil {
		b = append(b, `,"scenario_revision":`...)
		b = strconv.AppendInt(b, *head.ScenarioRevision, 10)
	}
	b = append(b, `,"columns":`...)
	b = appendJSONStrings(b, g.ColLabels)
	b = append(b, `,"rows":`...)
	b = appendJSONStrings(b, g.RowLabels)
	if len(g.PropNames) > 0 {
		b = append(b, `,"prop_names":`...)
		b = appendJSONStrings(b, g.PropNames)
	}
	if len(g.RowProps) > 0 {
		b = append(b, `,"row_props":[`...)
		for i, props := range g.RowProps {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONStrings(b, props)
		}
		b = append(b, ']')
	}
	b = append(b, `,"values":[`...)
	for i, row := range g.Values {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSONFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `],"stats":{"members_in_scope":`...)
	b = strconv.AppendInt(b, int64(qs.MembersInScope), 10)
	b = append(b, `,"chunks_read":`...)
	b = strconv.AppendInt(b, int64(qs.ChunksRead), 10)
	b = append(b, `,"cells_relocated":`...)
	b = strconv.AppendInt(b, int64(qs.CellsRelocated), 10)
	b = append(b, `,"merge_edges":`...)
	b = strconv.AppendInt(b, int64(qs.MergeEdges), 10)
	b = append(b, `,"merge_groups":`...)
	b = strconv.AppendInt(b, int64(qs.MergeGroups), 10)
	return append(b, "}}"...), nil
}

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a one-digit
// exponent's leading zero dropped; NaN (⊥) as null.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) {
		return append(b, "null"...), nil
	}
	if math.IsInf(v, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// appendJSONStrings appends a string list as encoding/json writes a
// []string: null when nil.
func appendJSONStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied between quotes; any other
// string — member names may hold anything — is encoded by encoding/json
// itself, so every escape matches.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
