package iotrace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"iotrace/internal/svc"
)

// Server is the iosimd simulation service: traces upload once into a
// content-addressed store, and every simulated cell is identified by
// its ScenarioKey — (trace digest, canonical config, seed offset) — so
// repeat and concurrent queries for the same cell cost one simulation
// ever. The HTTP surface:
//
//	POST /traces?name=N[&format=F][&csvmap=M]  upload a trace (any registered format) -> digest
//	GET  /traces                               list stored traces
//	POST /simulate  {"trace": digest|name, "config": {...}, "seed_offset": k}
//	POST /sweep     {"trace": digest|name, "config": {...}, "grid": {...}[, "stream": true]}
//	GET  /results/{key}                        one cached cell by ScenarioKey
//	GET  /stats                                service counters
//
// Results are served as ResultView JSON. Cached cells are returned
// byte-for-byte as first computed, so identical queries get identical
// bodies; concurrent identical cells coalesce onto one execution, and
// all simulation work funnels through one bounded worker pool.
type Server struct {
	mux    *http.ServeMux
	store  *svc.BlobStore
	cache  *svc.ResultCache
	flight svc.Flight
	sem    chan struct{}

	dataDir string
	ownDir  bool

	defFormat string
	defCSVMap string

	executed  atomic.Int64 // simulations actually run
	cacheHits atomic.Int64 // cells served from the result cache
	coalesced atomic.Int64 // cells that joined an in-flight twin

	mu      sync.Mutex
	names   map[string]string      // upload name -> digest
	sources map[string]*traceEntry // digest -> shared decode-once workload
}

// traceEntry is one stored trace's shared simulation feed: a workload
// over one decode-once TraceSource, plus the workload fingerprint every
// scenario key for this trace embeds. Built once per digest per server.
type traceEntry struct {
	once sync.Once
	w    *Workload
	fp   string
	err  error
}

// ServerConfig parameterizes NewServer. The zero value works: a
// temporary data directory (removed by Close), GOMAXPROCS simulation
// workers, and default result-cache sizing.
type ServerConfig struct {
	// DataDir is the service's durable root (trace blobs under
	// traces/, cached cells under results/). "" uses a fresh temporary
	// directory that Close removes.
	DataDir string
	// Workers bounds concurrently executing simulations across all
	// requests; <= 0 uses GOMAXPROCS.
	Workers int
	// CacheEntries bounds the in-memory tier of the result cache;
	// <= 0 uses the svc default.
	CacheEntries int
	// DefaultFormat and DefaultCSVMap apply to uploads whose query
	// omits format/csvmap ("" means auto-detect / no mapping).
	DefaultFormat string
	DefaultCSVMap string
}

// NewServer builds a ready-to-serve simulation service.
func NewServer(cfg ServerConfig) (*Server, error) {
	dataDir, ownDir := cfg.DataDir, false
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "iosimd-*")
		if err != nil {
			return nil, err
		}
		dataDir, ownDir = dir, true
	}
	store, err := svc.NewBlobStore(filepath.Join(dataDir, "traces"))
	if err != nil {
		return nil, err
	}
	cache, err := svc.NewResultCache(filepath.Join(dataDir, "results"), cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		mux:       http.NewServeMux(),
		store:     store,
		cache:     cache,
		sem:       make(chan struct{}, workers),
		dataDir:   dataDir,
		ownDir:    ownDir,
		defFormat: cfg.DefaultFormat,
		defCSVMap: cfg.DefaultCSVMap,
		names:     make(map[string]string),
		sources:   make(map[string]*traceEntry),
	}
	// A restarted server still knows its traces by name.
	for _, digest := range store.List() {
		if meta, ok := store.Meta(digest); ok && meta["name"] != "" {
			s.names[meta["name"]] = digest
		}
	}
	s.mux.HandleFunc("POST /traces", s.handleUpload)
	s.mux.HandleFunc("GET /traces", s.handleListTraces)
	s.mux.HandleFunc("POST /simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s, nil
}

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the server's resources; a temporary data directory
// (ServerConfig.DataDir == "") is removed.
func (s *Server) Close() error {
	if s.ownDir {
		return os.RemoveAll(s.dataDir)
	}
	return nil
}

// ExecutedCells reports how many simulations the server has actually
// run — cache hits and coalesced joins don't count. Tests pin the
// "repeat sweep costs zero simulations" contract on it.
func (s *Server) ExecutedCells() int64 { return s.executed.Load() }

// maxUploadBytes bounds one uploaded trace (1 GB).
const maxUploadBytes = 1 << 30

// TraceInfo describes one stored trace, as listed by GET /traces and
// returned by POST /traces.
type TraceInfo struct {
	Digest  string `json:"digest"`
	Name    string `json:"name,omitempty"`
	Format  string `json:"format"`
	Bytes   int64  `json:"bytes"`
	Records int64  `json:"records,omitempty"`
	Existed bool   `json:"existed,omitempty"` // upload response only
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty trace upload"))
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	formatName := q.Get("format")
	if formatName == "" {
		formatName = s.defFormat
	}
	if formatName == "" {
		formatName = "auto"
	}
	csvSpec := q.Get("csvmap")
	if csvSpec == "" {
		csvSpec = s.defCSVMap
	}
	// Validate the import knobs now, and resolve "auto" against the
	// uploaded bytes so the stored metadata pins a concrete format.
	if _, err := ImportOpts(formatName, csvSpec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	format, err := ParseFormat(formatName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if format == FormatAuto {
		if format, err = DetectFormatBytes(name, body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	// Decode the upload once, before storing: an undecodable trace is
	// rejected at the door instead of failing every later /simulate.
	records, err := countRecords(body, formatOpts(format, csvSpec))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	meta := map[string]string{
		"format":  format.String(),
		"bytes":   strconv.Itoa(len(body)),
		"records": strconv.FormatInt(records, 10),
	}
	if name != "" {
		meta["name"] = name
	}
	if csvSpec != "" {
		meta["csvmap"] = csvSpec
	}
	digest, existed, err := s.store.Put(body, meta)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if name != "" {
		s.mu.Lock()
		s.names[name] = digest
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, TraceInfo{
		Digest: digest, Name: name, Format: format.String(),
		Bytes: int64(len(body)), Records: records, Existed: existed,
	})
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	var out []TraceInfo
	for _, digest := range s.store.List() {
		meta, ok := s.store.Meta(digest)
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(meta["bytes"], 10, 64)
		recs, _ := strconv.ParseInt(meta["records"], 10, 64)
		out = append(out, TraceInfo{
			Digest: digest, Name: meta["name"], Format: meta["format"],
			Bytes: n, Records: recs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	writeJSON(w, http.StatusOK, out)
}

// SimulateRequest is the body of POST /simulate: one trace, one
// configuration, one cell.
type SimulateRequest struct {
	Trace      string     `json:"trace"` // content digest or upload name
	Config     ConfigSpec `json:"config"`
	SeedOffset uint64     `json:"seed_offset,omitempty"`
	Name       string     `json:"name,omitempty"` // scenario display name
}

// SweepRequest is the body of POST /sweep: one trace, a base
// configuration, and the grid of cells to expand over it. With Stream
// set the response is NDJSON — one SweepCell line per cell, in cell
// order, flushed as each completes — otherwise a single SweepResponse.
type SweepRequest struct {
	Trace  string     `json:"trace"`
	Config ConfigSpec `json:"config"`
	Grid   GridSpec   `json:"grid"`
	Stream bool       `json:"stream,omitempty"`
}

// SweepResponse is the non-streaming POST /sweep body. Cells hold each
// cell's ResultView exactly as cached, so a repeat sweep's response is
// byte-identical to the first.
type SweepResponse struct {
	Trace string            `json:"trace"`
	Cells []json.RawMessage `json:"cells"`
}

// SweepCell is one NDJSON progress line of a streaming sweep.
type SweepCell struct {
	Index int             `json:"index"`
	Total int             `json:"total"`
	Cell  json.RawMessage `json:"cell,omitempty"`
	Error string          `json:"error,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	entry, status, err := s.trace(req.Trace)
	if err != nil {
		httpError(w, status, err)
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := req.Name
	if name == "" {
		name = "base"
	}
	cell, err := s.cell(entry, Scenario{Name: name, Config: cfg, SeedOffset: req.SeedOffset})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeRaw(w, http.StatusOK, cell)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	entry, status, err := s.trace(req.Trace)
	if err != nil {
		httpError(w, status, err)
		return
	}
	base, err := req.Config.Config()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := req.Grid.Grid(base)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	scens := grid.Scenarios()

	// One goroutine per cell: the sem inside cell() is what bounds
	// actual simulation concurrency, and cache hits cost nothing, so
	// fan-out here just lets hits and fresh cells interleave freely.
	type cellOut struct {
		b   []byte
		err error
	}
	outs := make([]chan cellOut, len(scens))
	for i := range scens {
		outs[i] = make(chan cellOut, 1)
		go func(i int) {
			b, err := s.cell(entry, scens[i])
			outs[i] <- cellOut{b, err}
		}(i)
	}

	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		for i := range scens {
			out := <-outs[i]
			line := SweepCell{Index: i, Total: len(scens), Cell: out.b}
			if out.err != nil {
				line.Error = out.err.Error()
			}
			if enc.Encode(line) != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	resp := SweepResponse{Trace: entry.digest, Cells: make([]json.RawMessage, len(scens))}
	for i := range scens {
		out := <-outs[i]
		if out.err != nil {
			// A failing cell reports in place; its neighbors still serve.
			b, _ := json.Marshal(struct {
				Scenario string `json:"scenario"`
				Error    string `json:"error"`
			}{scens[i].Name, out.err.Error()})
			resp.Cells[i] = b
			continue
		}
		resp.Cells[i] = out.b
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := ScenarioKey(r.PathValue("key"))
	if !key.Valid() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed scenario key %q", key))
		return
	}
	b, ok := s.cache.Get(string(key))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key))
		return
	}
	s.cacheHits.Add(1)
	writeRaw(w, http.StatusOK, b)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int64{
		"traces":         int64(len(s.store.List())),
		"executed_cells": s.executed.Load(),
		"cache_hits":     s.cacheHits.Load(),
		"coalesced":      s.coalesced.Load(),
		"results_cached": int64(s.cache.Len()),
	})
}

// keyedEntry pairs a traceEntry with the digest it was resolved from.
type keyedEntry struct {
	*traceEntry
	digest string
}

// trace resolves a request's trace reference — a content digest or an
// upload name — to its shared decode-once entry, building (and thereby
// decoding) it on first use. The returned status is the HTTP code to
// serve when err is non-nil.
func (s *Server) trace(ref string) (keyedEntry, int, error) {
	if ref == "" {
		return keyedEntry{}, http.StatusBadRequest, fmt.Errorf("missing trace reference")
	}
	s.mu.Lock()
	digest := ref
	if d, ok := s.names[ref]; ok {
		digest = d
	}
	path, ok := s.store.Path(digest)
	if !ok {
		s.mu.Unlock()
		return keyedEntry{}, http.StatusNotFound, fmt.Errorf("unknown trace %q", ref)
	}
	entry, ok := s.sources[digest]
	if !ok {
		entry = &traceEntry{}
		s.sources[digest] = entry
	}
	s.mu.Unlock()

	entry.once.Do(func() {
		meta, _ := s.store.Meta(digest)
		opts, err := ImportOpts(meta["format"], meta["csvmap"])
		if err != nil {
			entry.err = err
			return
		}
		name := meta["name"]
		if name == "" {
			name = digest[:12]
		}
		w, err := New(ImportedFile(name, path, opts...))
		if err != nil {
			entry.err = err
			return
		}
		fp, err := w.Fingerprint()
		if err != nil {
			entry.err = err
			return
		}
		entry.w, entry.fp = w, fp
	})
	if entry.err != nil {
		return keyedEntry{}, http.StatusUnprocessableEntity, entry.err
	}
	return keyedEntry{entry, digest}, 0, nil
}

// cell returns the marshaled ResultView of one scenario cell, from the
// result cache when present, joining an in-flight identical cell when
// one exists, and otherwise simulating on the bounded pool. The bytes
// returned for a given key never vary — they are cached exactly as
// first marshaled.
func (s *Server) cell(e keyedEntry, sc Scenario) ([]byte, error) {
	key := string(sc.Key(e.fp))
	if b, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		return b, nil
	}
	b, joined, err := s.flight.Do(key, func() ([]byte, error) {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		// A coalesced twin may have populated the cache between our
		// miss and this execution slot.
		if b, ok := s.cache.Get(key); ok {
			return b, nil
		}
		// Background, not the request context: a coalesced cell is
		// shared across requests, so one client disconnecting must not
		// cancel everyone's simulation.
		results, err := e.w.Sweep(context.Background(), []Scenario{sc}, 1)
		if err != nil {
			return nil, err
		}
		res := results[0]
		if res.Err != nil {
			return nil, res.Err
		}
		s.executed.Add(1)
		view := NewResultView(sc.Name, res.Key, res.Result)
		b, err := json.Marshal(view)
		if err != nil {
			return nil, err
		}
		if err := s.cache.Put(key, b); err != nil {
			return nil, err
		}
		return b, nil
	})
	if joined {
		s.coalesced.Add(1)
	}
	return b, err
}

// formatOpts builds the SourceOptions pinning a concrete format plus an
// optional, already-validated CSV mapping spec.
func formatOpts(format Format, csvSpec string) []SourceOption {
	opts := []SourceOption{WithFormat(format)}
	if csvSpec != "" {
		if m, err := ParseCSVMapping(csvSpec); err == nil {
			opts = append(opts, WithCSVMapping(m))
		}
	}
	return opts
}

// countRecords decodes data completely, returning the record count or
// the first decode error.
func countRecords(data []byte, opts []SourceOption) (int64, error) {
	dec, err := NewTraceDecoder(bytes.NewReader(data), opts...)
	if err != nil {
		return 0, err
	}
	var n int64
	var rec Record
	for {
		switch err := dec.Next(&rec); err {
		case nil:
			n++
		case io.EOF:
			return n, nil
		default:
			return n, err
		}
	}
}

// readBody drains a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// decodeBody decodes a JSON request body into dst, rejecting unknown
// fields so typos surface as 400s instead of silently ignored knobs.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeRaw(w, status, b)
}

func writeRaw(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Two writes, not append(b, '\n'): b may be a shared cache slice,
	// and appending could scribble into its backing array.
	w.Write(b)
	io.WriteString(w, "\n")
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
