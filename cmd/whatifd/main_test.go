// Crash-recovery round trip against the real daemon binary: start
// whatifd with -paper and a data directory, commit a scenario (the
// catalog moves to version 2 and writes back a segment), kill the
// process with SIGKILL — no shutdown hook runs — and restart on the
// data directory alone. The restored catalog must serve the committed
// version with the edited cells, without any -paper/-load re-ingest.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"whatifolap/internal/chunk"
	"whatifolap/internal/segment"
	"whatifolap/internal/workload"
)

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startDaemon launches the built binary and waits for /healthz.
func startDaemon(t *testing.T, bin string, port int, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("whatifd did not become healthy")
	return nil
}

// postJSON POSTs a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body interface{}, out interface{}) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

type gridJSON struct {
	Version int64        `json:"version"`
	Values  [][]*float64 `json:"values"`
}

// oneCell extracts the single data cell of a 1×1 grid response.
func oneCell(t *testing.T, g gridJSON) float64 {
	t.Helper()
	if len(g.Values) != 1 || len(g.Values[0]) != 1 || g.Values[0][0] == nil {
		t.Fatalf("expected a 1×1 non-null grid, got %+v", g.Values)
	}
	return *g.Values[0][0]
}

// fteJanQuery reads the FTE salary rollup for January in NY.
const fteJanQuery = `SELECT {[Time].[Jan]} ON COLUMNS, {[FTE]} ON ROWS
FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])`

func TestWhatifdKill9RestartRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts the daemon binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "whatifd.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")

	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := startDaemon(t, bin, port, "-paper", "-data-dir", dataDir)

	// Baseline: FTE Jan NY salary is Joe 10 + Lisa 10.
	var g gridJSON
	postJSON(t, base+"/query", map[string]interface{}{"cube": "paper", "query": fteJanQuery}, &g)
	if g.Version != 1 || oneCell(t, g) != 20 {
		t.Fatalf("baseline: version %d cell %v, want v1 cell 20", g.Version, oneCell(t, g))
	}

	// Commit a scenario: raise Lisa's January salary. The catalog moves
	// to version 2 and the persister writes the segment back.
	var sc struct {
		ID string `json:"id"`
	}
	postJSON(t, base+"/scenarios", map[string]string{"name": "raise", "cube": "paper"}, &sc)
	postJSON(t, base+"/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{
				"Organization": "FTE/Lisa", "Location": "NY", "Time": "Jan", "Measures": "Salary",
			}, "value": 77},
		},
	}, nil)
	var committed struct {
		Version int64 `json:"version"`
	}
	postJSON(t, base+"/scenarios/"+sc.ID+"/commit", nil, &committed)
	if committed.Version != 2 {
		t.Fatalf("commit version = %d, want 2", committed.Version)
	}

	// Wait for the asynchronous write-back queue to drain: after this
	// the segment files and manifest are durable on disk.
	waitWriteback(t, base)

	// Kill -9: no graceful shutdown, no flush hook.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the data directory alone — no -paper re-ingest.
	port2 := freePort(t)
	base2 := fmt.Sprintf("http://127.0.0.1:%d", port2)
	cmd2 := startDaemon(t, bin, port2, "-data-dir", dataDir)

	var cubes struct {
		Cubes []struct {
			Name    string `json:"name"`
			Version int64  `json:"version"`
		} `json:"cubes"`
	}
	getJSON(t, base2+"/cubes", &cubes)
	if len(cubes.Cubes) != 1 || cubes.Cubes[0].Name != "paper" || cubes.Cubes[0].Version != 2 {
		t.Fatalf("restored catalog = %+v, want paper at version 2", cubes.Cubes)
	}

	var g2 gridJSON
	postJSON(t, base2+"/query", map[string]interface{}{"cube": "paper", "query": fteJanQuery}, &g2)
	if g2.Version != 2 || oneCell(t, g2) != 10+77 {
		t.Fatalf("restored: version %d cell %v, want v2 cell 87", g2.Version, oneCell(t, g2))
	}

	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
}

// writeRunEncodableDump saves the tiny validity-window workforce —
// flat months, period-fastest chunks, so every chunk's value runs pay —
// as a binary dump for -load.
func writeRunEncodableDump(t *testing.T, path string) {
	t.Helper()
	cfg := workload.ConfigTiny()
	cfg.FlatMonths = true
	cfg.ChunkDims = []int{64, 12, 1, 1, 1, 1, 1}
	w, err := workload.NewWorkforce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SaveBinary(w.Cube, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkSegmentsRunEncoded opens every written version of the cube and
// fails unless each of its chunks is stored run-encoded.
func checkSegmentsRunEncoded(t *testing.T, dataDir, name string, versions int) {
	t.Helper()
	man, _, err := segment.LoadManifest(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	vs := man.Versions(name)
	if len(vs) != versions {
		t.Fatalf("manifest holds %d versions of %s, want %d", len(vs), name, versions)
	}
	for _, v := range vs {
		sf, err := segment.Open(filepath.Join(dataDir, v.File), segment.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids := sf.IDs()
		for _, id := range ids {
			c, _, err := sf.ReadChunkAt(id)
			if err != nil {
				t.Fatal(err)
			}
			if c.Rep() != chunk.RunEncoded {
				t.Fatalf("v%d chunk %d written %v, want run-encoded", v.Version, id, c.Rep())
			}
		}
		sf.Close()
		if len(ids) == 0 {
			t.Fatalf("v%d holds no chunks", v.Version)
		}
	}
}

// waitWriteback polls /metrics until the write-back queue is empty.
func waitWriteback(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m struct {
			WritebackPending int64 `json:"writeback_pending"`
		}
		getJSON(t, base+"/metrics", &m)
		if m.WritebackPending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write-back queue never drained (pending=%d)", m.WritebackPending)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// empJanQuery reads one leaf cell of the workforce: Emp00010's
// Acct000 in January, at the dimensions' first leaves elsewhere — the
// cell a scenario edit that names only Department, Period and Account
// addresses.
const empJanQuery = `SELECT {[Period].[Jan]} ON COLUMNS, {[Emp00010]} ON ROWS
FROM [App].[Db]
WHERE ([Account].[Acct000], [Scenario].[Current], [Currency].[Local], [Version].[BU Version_1], [ValueType].[HSP_InputValue])`

// TestWhatifdRunEncodedKill9Restart is the kill -9 round trip over a
// cube whose chunks are run-encoded: the daemon loads a validity-window
// dump, publication settles it run-encoded, a one-cell commit publishes
// a v2 that is run-encoded too, both segments are written with run
// records, and after a kill -9 the restarted daemon answers from the
// restored segment with the committed value.
func TestWhatifdRunEncodedKill9Restart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts the daemon binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "whatifd.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dump := filepath.Join(tmp, "vw.bin")
	writeRunEncodableDump(t, dump)
	dataDir := filepath.Join(tmp, "data")

	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := startDaemon(t, bin, port, "-load", "vw="+dump, "-data-dir", dataDir)

	var g gridJSON
	postJSON(t, base+"/query", map[string]interface{}{"cube": "vw", "query": empJanQuery}, &g)
	if g.Version != 1 || oneCell(t, g) == 42 {
		t.Fatalf("baseline: version %d cell %v, want v1 and a cell other than 42", g.Version, oneCell(t, g))
	}

	var sc struct {
		ID string `json:"id"`
	}
	postJSON(t, base+"/scenarios", map[string]string{"name": "raise", "cube": "vw"}, &sc)
	postJSON(t, base+"/scenarios/"+sc.ID+"/edit", map[string]interface{}{
		"edits": []map[string]interface{}{
			{"op": "set", "cell": map[string]string{
				"Department": "Emp00010", "Period": "Jan", "Account": "Acct000",
			}, "value": 42},
		},
	}, nil)
	var committed struct {
		Version int64 `json:"version"`
	}
	postJSON(t, base+"/scenarios/"+sc.ID+"/commit", nil, &committed)
	if committed.Version != 2 {
		t.Fatalf("commit version = %d, want 2", committed.Version)
	}
	waitWriteback(t, base)
	checkSegmentsRunEncoded(t, dataDir, "vw", 2)

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	port2 := freePort(t)
	base2 := fmt.Sprintf("http://127.0.0.1:%d", port2)
	cmd2 := startDaemon(t, bin, port2, "-data-dir", dataDir)

	var g2 gridJSON
	postJSON(t, base2+"/query", map[string]interface{}{"cube": "vw", "query": empJanQuery}, &g2)
	if g2.Version != 2 || oneCell(t, g2) != 42 {
		t.Fatalf("restored: version %d cell %v, want v2 cell 42", g2.Version, oneCell(t, g2))
	}

	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
}
