package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServeQuery posts raw request bodies to POST /query on the paper
// server, result cache on and history collector off, so one server
// sees the whole run and later inputs may hit what earlier ones
// cached. Whatever the body, the server answers with a JSON object; it
// never answers 500 (a query that panicked is a bug, not a client
// error); and every non-2xx answer names its error.
func FuzzServeQuery(f *testing.F) {
	for _, seed := range []string{
		mustJSON(f, queryRequest{Query: paperQuery}),
		mustJSON(f, queryRequest{Cube: "paper", Query: `SELECT {[Time].[Qtr1]} ON COLUMNS, {[PTE].Children} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`}),
		mustJSON(f, queryRequest{Query: "EXPLAIN " + paperQuery}),
		mustJSON(f, queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery}),
		mustJSON(f, queryRequest{Query: `WITH CHANGES {([FTE].[Lisa], [FTE], [PTE], [Apr])} VISUAL
SELECT {[Time].Levels(0).Members} ON COLUMNS, {[Organization].Levels(0).Members} ON ROWS
FROM W WHERE ([Location].[NY], [Measures].[Salary])`}),
		mustJSON(f, queryRequest{Query: `WITH TRANSFER 0.5 FROM [NY] TO [MA] FOR ([Measures].[Salary])
SELECT {[Time].[Qtr1]} ON COLUMNS, {[Location].Levels(0).Members} ON ROWS
FROM W WHERE ([Organization].[FTE], [Measures].[Salary])`}),
		mustJSON(f, queryRequest{Query: "EXPLAIN ANALYZE " + paperQuery, TimeoutMs: 1}),
		`{"query":5}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	h := newPaperServer(f, Config{CacheBytes: 1 << 20, ObsInterval: -1}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError || strings.Contains(rec.Body.String(), "query panicked") {
			t.Fatalf("body %q: %d %s", body, rec.Code, rec.Body)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil || obj == nil {
			t.Fatalf("body %q: %d answer is no JSON object (%v): %s", body, rec.Code, err, rec.Body)
		}
		if _, named := obj["error"]; rec.Code/100 != 2 && !named {
			t.Fatalf("body %q: %d answer names no error: %s", body, rec.Code, rec.Body)
		}
	})
}

// mustJSON encodes a request body for a fuzz seed.
func mustJSON(tb testing.TB, v interface{}) string {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
