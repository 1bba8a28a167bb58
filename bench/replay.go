package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The serve workloads generate their traffic from the seed as an NDJSON
// request log, one logEntry per line, and drive it through replayer.run;
// `bench replay` sends the same log to an external iosimd.

// logEntry is one request of a request log. Client numbers the closed
// loop that sends it; each client sends its entries in log order.
type logEntry struct {
	Client   int             `json:"client"`
	Method   string          `json:"method"`
	Path     string          `json:"path"`
	Body     json.RawMessage `json:"body,omitempty"`
	BodyFile string          `json:"body_file,omitempty"` // relative to the log's directory
}

func writeLog(path string, entries []logEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func readLog(path string) ([]logEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logEntry
	dec := json.NewDecoder(f)
	for {
		var e logEntry
		err := dec.Decode(&e)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: entry %d: %w", path, len(out)+1, err)
		}
		out = append(out, e)
	}
}

// sample is one replayed request. It is kept small and free of
// pointers: a serve run keeps one per request, and the benchmark's own
// memory must not move peak_rss_mb with throughput.
type sample struct {
	entry int32
	bytes int32
	dur   time.Duration
}

// failure is a replayed request that failed or returned a wrong body.
type failure struct {
	entry int
	err   error
}

// replayed is what one replay produced.
type replayed struct {
	samples []sample
	fails   []failure
}

// replayer sends request logs over closed loops: one client per loop,
// each with one keep-alive connection, each waiting for its reply
// before sending its next request.
type replayer struct {
	base    string
	clients []*http.Client
	bufs    []*bytes.Buffer // each client's response buffer, reused
	dir     string          // resolves body_file entries
	rec     *recorder       // nil: no client spans
	// check validates one response body; it is called concurrently, and
	// body is valid only until it returns.
	check func(entry int, body []byte) error
	reqs  atomic.Int64
}

func newReplayer(base string, clients int, dir string) *replayer {
	rp := &replayer{base: base, dir: dir}
	for i := 0; i < clients; i++ {
		rp.clients = append(rp.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
		rp.bufs = append(rp.bufs, new(bytes.Buffer))
	}
	return rp
}

// close drops the clients' idle connections.
func (rp *replayer) close() {
	for _, c := range rp.clients {
		c.CloseIdleConnections()
	}
}

// run replays entries until the log ends or, when until is set, until
// then; with loop set each client restarts its part of the log when it
// runs out. Requests in flight at the deadline complete.
func (rp *replayer) run(entries []logEntry, until time.Time, loop bool) replayed {
	mine := make([][]int, len(rp.clients))
	for i, e := range entries {
		c := e.Client % len(rp.clients)
		mine[c] = append(mine[c], i)
	}
	var mu sync.Mutex
	var out replayed
	var wg sync.WaitGroup
	for c := range rp.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := replayed{samples: make([]sample, 0, len(mine[c]))}
			for i := 0; len(mine[c]) > 0; i++ {
				if i == len(mine[c]) {
					if !loop {
						break
					}
					i = 0
				}
				// Every client sends at least one request, however late.
				if len(local.samples) > 0 && !until.IsZero() && !time.Now().Before(until) {
					break
				}
				idx := mine[c][i]
				s, err := rp.do(c, idx, entries[idx])
				local.samples = append(local.samples, s)
				if err != nil {
					local.fails = append(local.fails, failure{idx, err})
				}
			}
			mu.Lock()
			out.samples = append(out.samples, local.samples...)
			out.fails = append(out.fails, local.fails...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// do sends one request and times it from send to the last body byte.
func (rp *replayer) do(client, idx int, e logEntry) (sample, error) {
	s := sample{entry: int32(idx)}
	var body io.Reader
	var size int64
	if e.BodyFile != "" {
		f, err := os.Open(filepath.Join(rp.dir, e.BodyFile))
		if err != nil {
			return s, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return s, err
		}
		body, size = f, st.Size()
	} else if len(e.Body) > 0 {
		body, size = bytes.NewReader(e.Body), int64(len(e.Body))
	}
	req, err := http.NewRequest(e.Method, rp.base+e.Path, body)
	if err != nil {
		return s, err
	}
	req.ContentLength = size
	id := rp.reqs.Add(1)
	sp := rp.rec.begin("http.client", -1, id)
	if rp.rec != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
		req.Header.Set("X-Bench-Span", strconv.Itoa(sp))
	}
	buf := rp.bufs[client]
	buf.Reset()
	status := 0
	t := time.Now()
	resp, err := rp.clients[client].Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	s.dur = time.Since(t)
	rp.rec.end(sp)
	b := buf.Bytes()
	s.bytes = int32(len(b))
	switch {
	case err != nil:
		return s, err
	case status != http.StatusOK:
		return s, fmt.Errorf("%s %s: status %d: %s", e.Method, e.Path, status, bytes.TrimSpace(b))
	case rp.check != nil:
		return s, rp.check(idx, b)
	}
	return s, nil
}

// tracedHandler wraps the server in an http.handler span parented to
// the client span named in the request headers.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			parent = -1
		}
		sp := rec.begin("http.handler", parent, req)
		h.ServeHTTP(w, r)
		rec.end(sp)
	})
}

// tally counts a replay into o and returns its latencies in ms.
func tally(o *outcome, r replayed) []float64 {
	o.attempted += len(r.samples)
	for _, f := range r.fails {
		o.fail("request %d: %v", f.entry, f.err)
	}
	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = float64(s.dur) / float64(time.Millisecond)
	}
	return lat
}

// replayCmd is `bench replay -log F -addr URL`: it replays a request log
// against a running iosimd and prints what a workload would report.
func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	logPath := fs.String("log", "", "NDJSON request log written by a serve workload")
	addr := fs.String("addr", "", "base URL of the iosimd to replay against, e.g. http://localhost:8080")
	seconds := fs.Float64("seconds", 0, "stop issuing requests after this many seconds (0: replay the log once)")
	loop := fs.Bool("loop", false, "restart each client's part of the log when it runs out (needs -seconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" || *addr == "" {
		return fmt.Errorf("replay needs -log and -addr")
	}
	if *loop && *seconds <= 0 {
		return fmt.Errorf("replay -loop needs -seconds")
	}
	entries, err := readLog(*logPath)
	if err != nil {
		return err
	}
	clients := 0
	for _, e := range entries {
		clients = max(clients, e.Client+1)
	}
	rp := newReplayer(*addr, clients, filepath.Dir(*logPath))
	defer rp.close()
	var until time.Time
	start := time.Now()
	if *seconds > 0 {
		until = start.Add(time.Duration(*seconds * float64(time.Second)))
	}
	r := rp.run(entries, until, *loop)
	elapsed := time.Since(start)
	o := &outcome{}
	addLatency(o, tally(o, r))
	o.add("req_per_s", float64(len(r.samples))/elapsed.Seconds(), "req/s")
	printOutcome(os.Stdout, "replay", o)
	if o.failed > 0 {
		return fmt.Errorf("%d of %d requests failed", o.failed, o.attempted)
	}
	return nil
}
