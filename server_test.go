package iotrace_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"iotrace"
)

// newTestServer stages a small generated trace on disk and returns the
// service wrapped in an httptest server, plus the staged trace's bytes.
func newTestServer(t *testing.T) (*iotrace.Server, *httptest.Server, []byte) {
	t.Helper()
	path, _ := stageTrace(t, "upw", iotrace.FormatASCII)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := iotrace.NewServer(iotrace.ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, raw
}

func post(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func uploadTrace(t *testing.T, ts *httptest.Server, raw []byte) iotrace.TraceInfo {
	t.Helper()
	code, body := post(t, ts.URL+"/traces?name=upw", "application/octet-stream", raw)
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var info iotrace.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestServerUpload(t *testing.T) {
	_, ts, raw := newTestServer(t)

	info := uploadTrace(t, ts, raw)
	sum := sha256.Sum256(raw)
	if info.Digest != hex.EncodeToString(sum[:]) {
		t.Errorf("digest %s != local sha256 %x", info.Digest, sum)
	}
	if info.Existed {
		t.Error("first upload reported existed")
	}
	if info.Format != "ascii" {
		t.Errorf("detected format %q, want ascii", info.Format)
	}

	// Re-uploading identical bytes is idempotent.
	again := uploadTrace(t, ts, raw)
	if again.Digest != info.Digest || !again.Existed {
		t.Errorf("re-upload: digest %s existed %v", again.Digest, again.Existed)
	}

	code, body := get(t, ts.URL+"/traces")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list []iotrace.TraceInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Digest != info.Digest || list[0].Name != "upw" {
		t.Errorf("list = %+v", list)
	}

	// Garbage uploads are rejected, not stored.
	code, _ = post(t, ts.URL+"/traces?name=junk", "application/octet-stream", []byte("\x00\x01nonsense"))
	if code != http.StatusBadRequest {
		t.Errorf("garbage upload: %d, want 400", code)
	}
}

func TestServerSimulate(t *testing.T) {
	srv, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	req := func(trace string, cfg iotrace.ConfigSpec) (int, []byte) {
		b, err := json.Marshal(iotrace.SimulateRequest{Trace: trace, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return post(t, ts.URL+"/simulate", "application/json", b)
	}

	cache := int64(8)
	code, body := req(info.Digest, iotrace.ConfigSpec{CacheMB: &cache})
	if code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, body)
	}
	var view iotrace.ResultView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !view.Key.Valid() || view.WallSec <= 0 || view.Result == nil {
		t.Errorf("view = key %q wall %v result %v", view.Key, view.WallSec, view.Result != nil)
	}
	if srv.ExecutedCells() != 1 {
		t.Errorf("executed %d cells, want 1", srv.ExecutedCells())
	}

	// By upload name, same config: a cache hit, byte-identical.
	code, byName := req("upw", iotrace.ConfigSpec{CacheMB: &cache})
	if code != http.StatusOK {
		t.Fatalf("simulate by name: %d %s", code, byName)
	}
	if !bytes.Equal(body, byName) {
		t.Error("cached response differs from fresh response")
	}
	if srv.ExecutedCells() != 1 {
		t.Errorf("repeat simulate executed a new cell (%d)", srv.ExecutedCells())
	}

	// The cell is also addressable directly by its key.
	code, cell := get(t, ts.URL+"/results/"+string(view.Key))
	if code != http.StatusOK {
		t.Fatalf("results/%s: %d", view.Key, code)
	}
	if !bytes.Equal(cell, body) {
		t.Error("GET /results body differs from simulate body")
	}

	// Unknown trace and malformed config are client errors.
	if code, _ := req("no-such-trace", iotrace.ConfigSpec{}); code != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", code)
	}
	if code, _ = req(info.Digest, iotrace.ConfigSpec{Scheduler: "bogus"}); code != http.StatusBadRequest {
		t.Errorf("bad scheduler: %d, want 400", code)
	}
	for _, bad := range []struct{ path, body string }{
		{"/simulate", `{"nope":1}`},
		// "workers" is not a SweepRequest field.
		{"/sweep", `{"trace":"` + info.Digest + `","workers":2}`},
	} {
		if code, _ = post(t, ts.URL+bad.path, "application/json", []byte(bad.body)); code != http.StatusBadRequest {
			t.Errorf("unknown field %s %s: %d, want 400", bad.path, bad.body, code)
		}
	}

	// Key hygiene on the results route.
	if code, _ = get(t, ts.URL+"/results/sk-tooshort"); code != http.StatusBadRequest {
		t.Errorf("malformed key: %d, want 400", code)
	}
}

// sweepBody builds the standard 2x2 sweep request used across tests.
func sweepBody(t *testing.T, trace string, stream bool) []byte {
	t.Helper()
	b, err := json.Marshal(iotrace.SweepRequest{
		Trace: trace,
		Grid: iotrace.GridSpec{
			CacheMB: []int64{4, 8},
			BlockKB: []int64{4, 8},
		},
		Stream: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerSweepCacheHit(t *testing.T) {
	srv, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	code, first := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, first)
	}
	var resp iotrace.SweepResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace != info.Digest || len(resp.Cells) != 4 {
		t.Fatalf("sweep response: trace %s, %d cells", resp.Trace, len(resp.Cells))
	}
	executed := srv.ExecutedCells()
	if executed != 4 {
		t.Fatalf("first sweep executed %d cells, want 4", executed)
	}

	// The acceptance criterion: an identical repeat sweep runs zero new
	// simulations and returns byte-identical bytes.
	code, second := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))
	if code != http.StatusOK {
		t.Fatalf("repeat sweep: %d %s", code, second)
	}
	if got := srv.ExecutedCells(); got != executed {
		t.Errorf("repeat sweep executed %d new simulations, want 0", got-executed)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached sweep response is not byte-identical to the fresh one")
	}

	// Streaming mode serves the same cached cells as NDJSON lines.
	code, stream := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, true))
	if code != http.StatusOK {
		t.Fatalf("stream sweep: %d %s", code, stream)
	}
	if got := srv.ExecutedCells(); got != executed {
		t.Errorf("streamed repeat executed %d new simulations, want 0", got-executed)
	}
	dec := json.NewDecoder(bytes.NewReader(stream))
	for i := 0; i < 4; i++ {
		var line iotrace.SweepCell
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("stream line %d: %v", i, err)
		}
		if line.Index != i || line.Total != 4 || line.Error != "" {
			t.Errorf("stream line %d = index %d total %d err %q", i, line.Index, line.Total, line.Error)
		}
		if !bytes.Equal(line.Cell, resp.Cells[i]) {
			t.Errorf("streamed cell %d differs from swept cell", i)
		}
	}
	if dec.More() {
		t.Error("stream has trailing data")
	}
}

func TestServerCoalescing(t *testing.T) {
	srv, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	// N concurrent identical single-cell requests: exactly one
	// simulation runs; every response carries identical bytes.
	cache := int64(16)
	body, err := json.Marshal(iotrace.SimulateRequest{Trace: info.Digest, Config: iotrace.ConfigSpec{CacheMB: &cache}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	if got := srv.ExecutedCells(); got != 1 {
		t.Errorf("%d concurrent identical cells executed %d simulations, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("response %d differs from response 0", i)
		}
	}
}

// Served sweep results must be byte-identical to what the library's own
// Sweep produces when marshaled through the same view — the server adds
// caching and transport, never a different answer.
func TestServerMatchesLibrarySweep(t *testing.T) {
	_, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	code, body := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var resp iotrace.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	// Reconstruct the identical sweep through the library: same trace
	// file (re-staged from the uploaded bytes), same grid.
	path := t.TempDir() + "/upw.trace"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := iotrace.New(iotrace.ImportedFile("upw", path))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := iotrace.GridSpec{CacheMB: []int64{4, 8}, BlockKB: []int64{4, 8}}.Grid(iotrace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scens := grid.Scenarios()
	results, err := w.Sweep(context.Background(), scens, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(resp.Cells) {
		t.Fatalf("library %d cells, server %d", len(results), len(resp.Cells))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
		}
		want, err := json.Marshal(iotrace.NewResultView(r.Scenario.Name, r.Key, r.Result))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Cells[i], want) {
			t.Errorf("cell %d (%s): served JSON differs from library view", i, r.Scenario.Name)
		}
	}
}

// A server restarted over the same data directory serves previously
// cached cells without re-simulating: identity survives the process.
func TestServerRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	path, _ := stageTrace(t, "upw", iotrace.FormatASCII)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	run := func() (int64, []byte) {
		srv, err := iotrace.NewServer(iotrace.ServerConfig{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		info := uploadTrace(t, ts, raw)
		code, body := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))
		if code != http.StatusOK {
			t.Fatalf("sweep: %d %s", code, body)
		}
		return srv.ExecutedCells(), body
	}

	executedFirst, first := run()
	if executedFirst != 4 {
		t.Fatalf("first server executed %d cells, want 4", executedFirst)
	}
	executedSecond, second := run()
	if executedSecond != 0 {
		t.Errorf("restarted server executed %d cells, want 0 (disk cache)", executedSecond)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted server's response differs from the original")
	}
}

func TestServerStats(t *testing.T) {
	_, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	code, body := post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	post(t, ts.URL+"/sweep", "application/json", sweepBody(t, info.Digest, false))

	code, body = get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats map[string]int64
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["traces"] != 1 || stats["executed_cells"] != 4 {
		t.Errorf("stats = %v", stats)
	}
	if stats["cache_hits"] < 4 {
		t.Errorf("cache_hits = %d after a repeat sweep, want >= 4", stats["cache_hits"])
	}
	if stats["results_cached"] != 4 {
		t.Errorf("results_cached = %d, want 4", stats["results_cached"])
	}
}

// Exercise a config axis beyond cache/block through the whole HTTP
// path: distinct scheduler cells produce distinct keys and results.
func TestServerSweepPolicyAxes(t *testing.T) {
	_, ts, raw := newTestServer(t)
	info := uploadTrace(t, ts, raw)

	b, err := json.Marshal(iotrace.SweepRequest{
		Trace: info.Digest,
		Grid: iotrace.GridSpec{
			Schedulers: []string{"fcfs", "scan"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/sweep", "application/json", b)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var resp iotrace.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(resp.Cells))
	}
	var views [2]iotrace.ResultView
	for i, cell := range resp.Cells {
		if err := json.Unmarshal(cell, &views[i]); err != nil {
			t.Fatalf("cell %d: %v (%s)", i, err, cell)
		}
	}
	if views[0].Key == views[1].Key {
		t.Error("fcfs and scan cells share a scenario key")
	}
	if fmt.Sprintf("%v", views[0].Scenario) == "" {
		t.Error("unnamed scenario")
	}
}
