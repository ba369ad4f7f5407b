package server

// A golden pin of the observability surfaces' wire formats: the key
// paths, in order, of /metrics JSON; every line of the Prometheus
// exposition; and the layout of /metrics/history, /debug/slowlog,
// /debug/trace and /debug/trace/{id}. A scripted paper-cube session
// drives them, time-dependent values are masked, and every counter is
// compared exactly — so a refactor behind these endpoints must leave
// what clients read unchanged.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

const wireGolden = "testdata/observability_wire.golden"

func TestObservabilityWireFormats(t *testing.T) {
	// Every executed query is slow, so each one is retained and logged.
	s := newPaperServer(t, Config{CacheBytes: 1 << 20, ObsInterval: -1, SlowQueryMs: 0.000001})
	h := s.Handler()

	first := postQuery(t, h, queryRequest{Query: paperQuery})
	if first.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", first.Code, first.Body)
	}
	slowID := first.Header().Get("X-Trace-Id")
	if rec := postQuery(t, h, queryRequest{Query: paperQuery}); rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat query X-Cache = %q, want HIT", rec.Header().Get("X-Cache"))
	}
	if rec := postQuery(t, h, queryRequest{Query: "SELECT {"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparsable query = %d, want 400", rec.Code)
	}
	var sc scenarioInfoJSON
	decode(t, do(t, h, "POST", "/scenarios", map[string]string{"name": "wire"}), http.StatusCreated, &sc)
	decode(t, do(t, h, "POST", "/scenarios/"+sc.ID+"/query", queryRequest{Query: paperQuery}), http.StatusOK, nil)
	// An evaluation error comes last, so it heads the retained-trace list.
	if rec := postQuery(t, h, queryRequest{Query: "SELECT {[Nowhere].Children} ON COLUMNS FROM Warehouse"}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown member = %d, want 422: %s", rec.Code, rec.Body)
	}
	s.sampler.sample()

	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var b strings.Builder
	for _, path := range []string{"/metrics", "/metrics/history", "/debug/slowlog", "/debug/trace", "/debug/trace/" + slowID} {
		fmt.Fprintf(&b, "== GET %s\n", strings.Replace(path, slowID, "{id}", 1))
		lines, err := wireJSONPaths(get(path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	b.WriteString("== GET /metrics?format=prom\n")
	for _, l := range strings.Split(strings.TrimSuffix(string(get("/metrics?format=prom")), "\n"), "\n") {
		b.WriteString(maskPromLine(l) + "\n")
	}

	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q\nfull output:\n%s", wireGolden, i+1, g, w, got)
		}
	}
}

// wireJSONPaths flattens a JSON body into "path = value" lines in
// document order. Arrays report their length and only their first
// element, so the pin is the entry layout, not the entry count's
// worth of repetition. Leaves named like a time or an ID are masked.
func wireJSONPaths(body []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var out []string
	err := wireWalk(dec, "", &out)
	return out, err
}

func wireWalk(dec *json.Decoder, path string, out *[]string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch v := tok.(type) {
	case json.Delim:
		if v == '{' {
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				if err := wireWalk(dec, strings.TrimPrefix(path+"."+k.(string), "."), out); err != nil {
					return err
				}
			}
		} else {
			n := 0
			for ; dec.More(); n++ {
				sink := out
				if n > 0 {
					sink = new([]string)
				}
				if err := wireWalk(dec, path+"[]", sink); err != nil {
					return err
				}
			}
			*out = append(*out, fmt.Sprintf("%s len %d", path, n))
		}
		_, err = dec.Token() // the closing delimiter
		return err
	case string:
		*out = append(*out, path+" = "+wireMask(path, fmt.Sprintf("%q", v)))
	default:
		*out = append(*out, path+" = "+wireMask(path, fmt.Sprint(v)))
	}
	return nil
}

// wireMask hides the values that move with the clock or the boot:
// durations, timestamps, rates, trace IDs and rendered trees.
func wireMask(path, v string) string {
	leaf := path[strings.LastIndexByte(path, '.')+1:]
	switch {
	case strings.HasSuffix(leaf, "_ms"), strings.HasSuffix(leaf, "_us"), strings.HasSuffix(leaf, "_seconds"):
		return "~"
	}
	switch leaf {
	case "time", "id", "trace_id", "qps", "trace", "rendered":
		return "~"
	}
	return v
}

// maskPromLine keeps HELP/TYPE lines and sample names verbatim and
// masks the value of every time-valued sample except the observation
// counts (_count and the +Inf bucket).
func maskPromLine(l string) string {
	sp := strings.LastIndexByte(l, ' ')
	if strings.HasPrefix(l, "#") || sp < 0 {
		return l
	}
	name := l[:sp]
	timed := strings.Contains(name, "_ms") || strings.Contains(name, "_seconds")
	if timed && !strings.HasSuffix(name, "_count") && !strings.HasSuffix(name, `{le="+Inf"}`) {
		return name + " ~"
	}
	return l
}
