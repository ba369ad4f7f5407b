package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"whatifolap/internal/scenario"
)

// opTimeout caps one op; an op that runs into it counts as failed.
const opTimeout = 60 * time.Second

// latClass sorts completed ops into the latency distributions reported.
type latClass int

const (
	latMiss   latClass = iota // evaluated queries (X-Cache: MISS)
	latHit                    // result-cache hits
	latWrite                  // scenario edit batches
	latCommit                 // scenario commits
	latOther                  // create, fork, diff, discard
	numLatClasses
)

// outcome is what the client saw of one op.
type outcome struct {
	ms      float64
	status  int
	hit     bool
	version string
	body    []byte
	err     error
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// served is an evaluated catalog query kept for verification.
type served struct {
	op   op
	body []byte
}

// numSlices is the number of equal parts a timed window is cut into.
// Throughput and the latency percentiles are computed per part and
// reported as the median of the parts: this host slows down by a third for seconds at a time
// (other tenants, by every sign: a pure-CPU loop beside the query does
// not slow), and a median over parts ignores an episode shorter than
// half the window where a mean, or a tail percentile, over the whole
// window does not.
const numSlices = 5

// tally is one client's count of a phase.
type tally struct {
	attempted, completed, failed int
	lat                          [numLatClasses][]float64
	// completedIn and missIn split completed and lat[latMiss] by the
	// slice of the window the op finished in. rateIn is the slice's
	// throughput: per client, ops finished in the slice over the time
	// from the finish before the first of them to the finish of the last,
	// which counting ops against the slice's nominal length would round to
	// whole ops — 4 % of a slice at the rate of the slowest workload.
	completedIn [numSlices]int
	missIn      [numSlices][]float64
	cycleIn     [numSlices]time.Duration
	rateIn      [numSlices]float64
	// missBy splits lat[latMiss] by op class, for the report.
	missBy   map[string][]float64
	failures []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
	for k := range t.missIn {
		t.completedIn[k] += o.completedIn[k]
		t.missIn[k] = append(t.missIn[k], o.missIn[k]...)
		if o.cycleIn[k] > 0 {
			t.rateIn[k] += float64(o.completedIn[k]) / o.cycleIn[k].Seconds()
		}
	}
	if t.missBy == nil {
		t.missBy = map[string][]float64{}
	}
	for class, ms := range o.missBy {
		t.missBy[class] = append(t.missBy[class], ms...)
	}
	t.failures = append(t.failures, o.failures...)
}

// client is one closed-loop analyst: it holds one keep-alive connection
// and sends its next request only when the previous reply is complete.
type client struct {
	baseURL string
	http    *http.Client
	stream  *stream
	// cur and fork are the scenario ids of the session under way, with
	// the revision the client last saw of each.
	ids  [slotFork + 1]string
	revs [slotFork + 1]int64
	// firstBody maps a digest of (text, cube version, scenario,
	// revision) to a digest of the first body served for it: every
	// repeat must be byte-identical.
	firstBody map[uint64]uint64
	// kept is the seeded verification sample, a reservoir per op class.
	kept    map[string][]served
	keptN   map[string]int
	keepRng *rand.Rand
}

const keptPerClass = 4

func newClient(fx *fixture, s *stream, seed int64) *client {
	return &client{
		baseURL: fx.baseURL,
		stream:  s,
		http: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DisableCompression: true,
			},
		},
		firstBody: map[uint64]uint64{},
		kept:      map[string][]served{},
		keptN:     map[string]int{},
		keepRng:   rand.New(rand.NewSource(seed*7919 + int64(s.client))),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// endSession discards the scenarios the client still has open.
func (c *client) endSession() error {
	for _, sl := range []slot{slotFork, slotCur} {
		if c.ids[sl] == "" {
			continue
		}
		if out := c.do(op{kind: opDiscard, slot: sl}); !out.ok() {
			return fmt.Errorf("benchmark: discarding scenario %s: status %d: %v", c.ids[sl], out.status, out.err)
		}
	}
	return nil
}

// request turns an op into method, path and JSON body.
func (c *client) request(o op) (method, path string, body any) {
	id := c.ids[o.slot]
	switch o.kind {
	case opQuery:
		if o.slot == slotNone {
			return http.MethodPost, "/query", map[string]string{"cube": cubeName, "query": o.query}
		}
		return http.MethodPost, "/scenarios/" + id + "/query", map[string]string{"query": o.query}
	case opCreate:
		return http.MethodPost, "/scenarios", map[string]string{"cube": cubeName}
	case opEdit:
		return http.MethodPost, "/scenarios/" + id + "/edit", map[string][]scenario.Edit{"edits": o.edits}
	case opFork:
		return http.MethodPost, "/scenarios/" + id + "/fork", struct{}{}
	case opDiff:
		return http.MethodGet, "/scenarios/" + id + "/diff?against=" + c.ids[slotCur], nil
	case opCommit:
		return http.MethodPost, "/scenarios/" + id + "/commit", nil
	default:
		return http.MethodDelete, "/scenarios/" + id, nil
	}
}

// do sends one op and reads the whole reply. The clock covers what an
// analyst waits for: from sending the request to the last body byte.
func (c *client) do(o op) outcome {
	method, path, payload := c.request(o)
	var reqBody io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return outcome{err: err}
		}
		reqBody = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.baseURL+path, reqBody)
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{err: err, ms: msSince(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{
		ms: msSince(start), status: resp.StatusCode, body: body, err: err,
		hit:     resp.Header.Get("X-Cache") == "HIT",
		version: resp.Header.Get("X-Cube-Version"),
	}
	if out.ok() {
		c.follow(o, body)
	}
	return out
}

// follow tracks session state from a successful reply: scenario ids
// from create and fork, revisions from edits.
func (c *client) follow(o op, body []byte) {
	var info scenario.Info
	switch o.kind {
	case opCreate, opFork, opEdit:
		if json.Unmarshal(body, &info) != nil {
			return
		}
	}
	switch o.kind {
	case opCreate:
		c.ids[slotCur], c.revs[slotCur] = info.ID, info.Revision
	case opFork:
		c.ids[slotFork], c.revs[slotFork] = info.ID, info.Revision
	case opEdit:
		c.revs[o.slot] = info.Revision
	case opDiscard:
		c.ids[o.slot] = ""
	}
}

// check applies the per-reply checks: a 2xx status, and for queries a
// body byte-identical to the first one served for the same text, cube
// version and scenario revision.
func (c *client) check(o op, out outcome, t *tally) {
	if !out.ok() {
		t.fail("%s %s: status %d err %v: %.200s", o.class, c.ids[o.slot], out.status, out.err, out.body)
		return
	}
	if o.kind != opQuery {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d", o.query, out.version, c.ids[o.slot], c.revs[o.slot])
	key := h.Sum64()
	h.Reset()
	h.Write(out.body)
	sum := h.Sum64()
	if first, ok := c.firstBody[key]; !ok {
		c.firstBody[key] = sum
	} else if first != sum {
		t.fail("%s: repeat of one query returned a different body: %.120s", o.class, o.query)
	}
}

// keep offers an evaluated catalog query to the verification sample.
func (c *client) keep(o op, body []byte) {
	c.keptN[o.class]++
	if len(c.kept[o.class]) < keptPerClass {
		c.kept[o.class] = append(c.kept[o.class], served{o, body})
	} else if i := c.keepRng.Intn(c.keptN[o.class]); i < keptPerClass {
		c.kept[o.class][i] = served{o, body}
	}
}

// runFor issues ops back to back for d. An op still in flight at the
// deadline is completed and checked, but only ops that finish inside
// the window count towards throughput and latency.
func (c *client) runFor(start time.Time, d time.Duration) *tally {
	t := &tally{missBy: map[string][]float64{}}
	var prev time.Duration
	for time.Since(start) < d {
		o := c.stream.next()
		out := c.do(o)
		t.attempted++
		c.check(o, out, t)
		elapsed := time.Since(start)
		if !out.ok() || elapsed >= d {
			continue
		}
		slice := int(elapsed * numSlices / d)
		t.completed++
		t.completedIn[slice]++
		t.cycleIn[slice] += elapsed - prev
		prev = elapsed
		class := latOther
		switch {
		case o.kind == opQuery && out.hit:
			class = latHit
		case o.kind == opQuery:
			class = latMiss
			t.missIn[slice] = append(t.missIn[slice], out.ms)
			t.missBy[o.class] = append(t.missBy[o.class], out.ms)
			if o.slot == slotNone {
				c.keep(o, out.body)
			}
		case o.kind == opEdit:
			class = latWrite
		case o.kind == opCommit:
			class = latCommit
		}
		t.lat[class] = append(t.lat[class], out.ms)
	}
	return t
}

// window is the outcome of one timed closed-loop window.
type window struct {
	tally
	// allocBytes is what server and clients together allocated.
	allocBytes uint64
}

// runClients runs every client for d and merges their tallies.
func runClients(clients []*client, d time.Duration) *tally {
	start := time.Now()
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i] = c.runFor(start, d)
		}()
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// closedLoop warms the server up with the head of each client's op
// stream, untimed, then measures the next d of the same streams.
func closedLoop(clients []*client, warmup, d time.Duration) (*window, error) {
	if t := runClients(clients, warmup); t.failed > 0 {
		return nil, fmt.Errorf("benchmark: %d of %d warm-up ops failed: %v", t.failed, t.attempted, t.failures)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := &window{tally: *runClients(clients, d)}
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	return w, nil
}

// liveHeap is the heap in use after two collections — two, so that
// memory freed by finalizers in the first is gone too.
func liveHeap() uint64 {
	var mem runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// overSlices is the median, over the slices that completed any op, of
// a per-slice statistic.
func (w *window) overSlices(stat func(k int) float64) float64 {
	var per []float64
	for k, n := range w.completedIn {
		if n > 0 {
			per = append(per, stat(k))
		}
	}
	return median(per)
}
