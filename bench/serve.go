package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iotrace"
	"iotrace/internal/svc"
)

// serveClients is the number of closed-loop clients, one per core.
const serveClients = 2

// service is an iosimd Server on a loopback listener.
type service struct {
	srv *iotrace.Server
	ts  *httptest.Server
}

func startService(rec *recorder, cfg iotrace.ServerConfig) (*service, error) {
	srv, ts, err := newTestServer(rec, cfg)
	if err != nil {
		return nil, err
	}
	return &service{srv, ts}, nil
}

func (s *service) close() error {
	s.ts.Close()
	return s.srv.Close()
}

// uploadEntry is the POST /traces request uploading f from the log's
// directory.
func uploadEntry(client int, f traceFile, logDir string) (logEntry, error) {
	q := url.Values{"name": {f.name}, "format": {f.format.name}}
	if f.format.csv {
		q.Set("csvmap", csvSpec)
	}
	rel, err := filepath.Rel(logDir, f.path)
	if err != nil {
		return logEntry{}, err
	}
	return logEntry{Client: client, Method: http.MethodPost, Path: "/traces?" + q.Encode(), BodyFile: rel}, nil
}

func jsonEntry(client int, path string, body any) (logEntry, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return logEntry{}, err
	}
	return logEntry{Client: client, Method: http.MethodPost, Path: path, Body: b}, nil
}

// cellHeader is the part of a served cell the checks read.
type cellHeader struct {
	Scenario string              `json:"scenario"`
	Key      iotrace.ScenarioKey `json:"key"`
	Error    string              `json:"error"`
}

// genUploads writes count distinct traces of the given applications,
// rotating through the applications and through ASCII, binary and CSV,
// into dir.
func genUploads(dir string, seed uint64, apps []string, count int) ([]traceFile, error) {
	formats := []traceFormat{fmtASCII, fmtBinary, fmtCSV}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []traceFile
	for i := 0; i < count; i++ {
		app := apps[i%len(apps)]
		f := traceFile{name: fmt.Sprintf("%s-%02d", app, i), format: formats[i%len(formats)]}
		f.path = filepath.Join(dir, f.name+"."+f.format.name)
		recs, err := genRecords(app, seed, i, 1)
		if err != nil {
			return nil, err
		}
		if f.bytes, err = writeTrace(f.path, recs, f.format); err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ---- serve-cold ----

type coldInst struct {
	files    []traceFile // files[0] is the ccm trace the sweeps run on
	uploads  []logEntry
	requests []logEntry
	grids    []iotrace.GridSpec // per request pair
	svc      *service
	meanRTT  time.Duration // untraced phase-2 mean
}

// coldCellsPerReq is the number of new cells in each sweep request.
const coldCellsPerReq = 8

func setupServeCold(e *env) (instance, error) {
	// Half the uploads are forma traces of about 13 MB each, which carry
	// most of the bytes; the small ones vary the format and application.
	count, pairs := 24, 2048
	apps := []string{"ccm", "forma", "venus", "forma", "les", "forma"}
	if e.short {
		count, pairs = 4, 64
		apps = []string{"ccm", "les"}
	}
	files, err := genUploads(filepath.Join(e.dir, "traces"), e.seed, apps, count)
	if err != nil {
		return nil, err
	}
	c := &coldInst{files: files}
	// Each upload goes to the client with fewer bytes so far, so both
	// clients upload large traces side by side.
	var sent [serveClients]int64
	for _, f := range files {
		cl := 0
		for i := range sent {
			if sent[i] < sent[cl] {
				cl = i
			}
		}
		sent[cl] += f.bytes
		u, err := uploadEntry(cl, f, e.dir)
		if err != nil {
			return nil, err
		}
		c.uploads = append(c.uploads, u)
	}
	// Every cell is new: cache sizes come from a seeded permutation, so
	// no size repeats; both clients send the same sequence, so each cell
	// is asked for twice at about the same time. Every request pairs its
	// sizes with both block sizes, whose cells differ in cost about
	// twofold, so all requests cost alike and the latency percentiles do
	// not hinge on the seed's mix of block sizes.
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	const sizesPerReq = coldCellsPerReq / 2
	sizes := rng.Perm(pairs * sizesPerReq)
	for k := 0; k < pairs; k++ {
		g := iotrace.GridSpec{BlockKB: []int64{4, 8}}
		for _, s := range sizes[k*sizesPerReq : (k+1)*sizesPerReq] {
			g.CacheMB = append(g.CacheMB, int64(s+1))
		}
		c.grids = append(c.grids, g)
		for cl := 0; cl < serveClients; cl++ {
			en, err := jsonEntry(cl, "/sweep", iotrace.SweepRequest{Trace: files[0].name, Grid: g})
			if err != nil {
				return nil, err
			}
			c.requests = append(c.requests, en)
		}
	}
	if err := writeLog(filepath.Join(e.dir, "uploads.ndjson"), c.uploads); err != nil {
		return nil, err
	}
	if err := writeLog(filepath.Join(e.dir, "requests.ndjson"), c.requests); err != nil {
		return nil, err
	}
	if c.svc, err = startService(nil, iotrace.ServerConfig{DataDir: filepath.Join(e.dir, "data"), Workers: sweepWorkers}); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *coldInst) close() error { return c.svc.close() }

// coldPass is what one pass of serve-cold traffic produced.
type coldPass struct {
	uploadDur time.Duration
	uploads   replayed
	sweepDur  time.Duration
	sweeps    replayed
	unique    int
	cells     int
	stats     map[string]int64
	// Client 0's cells of the first request pair and of the last one it
	// was served, which checkLibrary recomputes.
	first, last []json.RawMessage
	lastPair    int
}

// traffic runs the uploads, then the sweep requests until the deadline,
// checking every response; failures land in o.
func (c *coldInst) traffic(e *env, s *service, rec *recorder, seconds float64, o *outcome) (*coldPass, error) {
	p := &coldPass{}
	start := time.Now()
	var mu sync.Mutex
	digests := map[int]string{}
	rp := newReplayer(s.ts.URL, serveClients, e.dir)
	defer rp.close()
	rp.rec = rec
	rp.check = func(idx int, body []byte) error {
		var info iotrace.TraceInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		mu.Lock()
		digests[idx] = info.Digest
		mu.Unlock()
		if info.Records <= 0 {
			return fmt.Errorf("upload %d: no records", idx)
		}
		return nil
	}
	p.uploads = rp.run(c.uploads, time.Time{}, false)
	p.uploadDur = time.Since(start)
	for i, f := range c.files {
		body, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		if digests[i] != svc.Digest(body) {
			o.fail("upload %s: digest %q, want %q", f.name, digests[i], svc.Digest(body))
		}
	}

	keys := map[iotrace.ScenarioKey]bool{}
	hashes := map[int]string{}
	rp.check = func(idx int, body []byte) error {
		var resp iotrace.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Cells) != coldCellsPerReq {
			return fmt.Errorf("sweep %d: %d cells, want %d", idx, len(resp.Cells), coldCellsPerReq)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, raw := range resp.Cells {
			var h cellHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return err
			}
			if h.Error != "" || !h.Key.Valid() {
				return fmt.Errorf("sweep %d: cell %q: error %q key %q", idx, h.Scenario, h.Error, h.Key)
			}
			keys[h.Key] = true
		}
		p.cells += len(resp.Cells)
		hashes[idx] = sha256Hex(body)
		if c.requests[idx].Client == 0 {
			if idx == 0 {
				p.first = resp.Cells
			}
			p.last, p.lastPair = resp.Cells, idx/serveClients
		}
		return nil
	}
	t := time.Now()
	p.sweeps = rp.run(c.requests, start.Add(time.Duration(seconds*float64(time.Second))), false)
	p.sweepDur = time.Since(t)
	p.unique = len(keys)
	// Twins of one request pair must be served byte-identical bodies.
	for idx, h := range hashes {
		if twin, ok := hashes[idx^1]; ok && twin != h {
			o.fail("sweep pair %d: the two clients got different bodies", idx/serveClients)
		}
	}
	var err error
	if p.stats, err = statsOf(s.ts.URL); err != nil {
		return nil, err
	}
	if got := p.stats["executed_cells"]; got != int64(p.unique) {
		o.fail("executed_cells %d, want the %d unique cells served", got, p.unique)
	}
	return p, nil
}

// scenarios expands request pair k's grid exactly as the server does.
func (c *coldInst) scenarios(k int) ([]iotrace.Scenario, error) {
	base, err := iotrace.ConfigSpec{}.Config()
	if err != nil {
		return nil, err
	}
	g, err := c.grids[k].Grid(base)
	if err != nil {
		return nil, err
	}
	return g.Scenarios(), nil
}

// ccmWorkload is the library's view of the uploaded ccm trace, built the
// way the server resolves a stored trace.
func (c *coldInst) ccmWorkload() (*iotrace.Workload, error) {
	f := c.files[0]
	return iotrace.New(iotrace.ImportedFile(f.name, f.path, f.format.opts()...))
}

// checkLibrary recomputes the cells of the first and last request pairs
// through the library and compares them byte for byte with what was
// served.
func (c *coldInst) checkLibrary(p *coldPass, o *outcome) error {
	w, err := c.ccmWorkload()
	if err != nil {
		return err
	}
	pairs := map[int][]json.RawMessage{0: p.first, p.lastPair: p.last}
	for k, served := range pairs {
		if served == nil {
			continue
		}
		scens, err := c.scenarios(k)
		if err != nil {
			return err
		}
		res, err := w.Sweep(context.Background(), scens, sweepWorkers)
		if err != nil {
			return err
		}
		for i, r := range res {
			o.attempted++
			if r.Err != nil {
				o.fail("library %s: %v", r.Scenario.Name, r.Err)
				continue
			}
			js, err := cellJSON(r.Scenario.Name, r.Key, r.Result)
			if err != nil {
				return err
			}
			if !bytes.Equal(js, served[i]) {
				o.fail("served cell %q differs from the library's", r.Scenario.Name)
			}
		}
	}
	return nil
}

func (c *coldInst) run(e *env) (*outcome, error) {
	o := &outcome{}
	p, err := c.traffic(e, c.svc, nil, e.seconds, o)
	if err != nil {
		return nil, err
	}
	if err := addPeakRSS(o); err != nil {
		return nil, err
	}
	tally(o, p.uploads)
	lat := tally(o, p.sweeps)
	if err := c.checkLibrary(p, o); err != nil {
		return nil, err
	}
	c.meanRTT = meanDur(p.sweeps.samples)
	sec := p.sweepDur.Seconds()
	o.add("cells_per_s", float64(p.unique)/sec, "cells/s")
	addLatency(o, lat)
	o.add("req_per_s", float64(len(p.sweeps.samples))/sec, "req/s")
	up := c.uploadBytes()
	o.add("upload_mb_per_s", float64(up)/1e6/p.uploadDur.Seconds(), "MB/s")
	o.note("uploaded %d traces, %.1f MB; %d unique cells over %d sweep requests", len(c.files), float64(up)/1e6, p.unique, len(p.sweeps.samples))
	return o, nil
}

func (c *coldInst) uploadBytes() int64 {
	var n int64
	for _, f := range c.files {
		n += f.bytes
	}
	return n
}

func meanDur(samples []sample) time.Duration {
	var t time.Duration
	for _, s := range samples {
		t += s.dur
	}
	return t / time.Duration(max(len(samples), 1))
}

func (c *coldInst) trace(e *env) (*outcome, error) {
	o := &outcome{}
	rec := e.rec
	// A fresh service on its own directory: the traced pass is cold too.
	dataDir := filepath.Join(e.dir, "data-traced")
	defer os.RemoveAll(dataDir)
	s, err := startService(rec, iotrace.ServerConfig{DataDir: dataDir, Workers: sweepWorkers})
	if err != nil {
		return nil, err
	}
	defer s.close()
	p, err := c.traffic(e, s, rec, e.seconds/2, o)
	if err != nil {
		return nil, err
	}
	tally(o, p.uploads)
	tally(o, p.sweeps)
	flightMetrics(o, p.stats)
	o.add("trace.overhead", float64(meanDur(p.sweeps.samples))/float64(c.meanRTT), "ratio")

	// The first request's cells through the engine, one at a time.
	scens, err := c.scenarios(0)
	if err != nil {
		return nil, err
	}
	w, err := c.ccmWorkload()
	if err != nil {
		return nil, err
	}
	fp, err := w.Fingerprint()
	if err != nil {
		return nil, err
	}
	feeds, err := loadFeeds(c.files[:1])
	if err != nil {
		return nil, err
	}
	var es engineStats
	var results []iotrace.SweepResult
	var views [][]byte
	var firstCell time.Duration
	for i, sc := range scens {
		r, err := es.cell(rec, -1, 0, sc, feeds)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstCell = es.setup + es.run
		}
		key := sc.Key(fp)
		js, err := cellJSON(sc.Name, key, r)
		if err != nil {
			return nil, err
		}
		results = append(results, iotrace.SweepResult{Scenario: sc, Result: r, Key: key})
		views = append(views, js)
	}
	es.report(o)
	if err := oneCellSweep(rec, w, scens[0], firstCell, o); err != nil {
		return nil, err
	}
	in := replayInput{
		files: c.files, resolve: c.files[:1], keys: scens, marshal: results,
		cacheOps: coldCacheOps(scens, fp, views),
	}
	if err := replayLayers(e, in, o); err != nil {
		return nil, err
	}
	cellTime := (es.setup + es.run) / time.Duration(es.cells)
	httpMetrics(o, rec.snapshot(), append(p.uploads.samples, p.sweeps.samples...), serviceLoad{
		uploadBytes: c.uploadBytes(), cells: p.cells, executed: int(p.stats["executed_cells"]), engineCell: cellTime.Seconds(),
	})
	return o, finishTrace(e, "serve-cold", o)
}

// oneCellSweep times a 1-cell Workload.Sweep; the pool's overhead over
// the same cell run directly through the engine is its idle tail.
func oneCellSweep(rec *recorder, w *iotrace.Workload, sc iotrace.Scenario, engine time.Duration, o *outcome) error {
	sp := rec.begin("sweep.one_cell", -1, 0)
	res, err := w.Sweep(context.Background(), []iotrace.Scenario{sc}, 1)
	d := rec.end(sp)
	if err != nil {
		return err
	}
	if res[0].Err != nil {
		return res[0].Err
	}
	o.add("sweep.tail_idle_s", (d - engine).Seconds(), "s")
	return nil
}

// ---- serve-warm ----

type warmInst struct {
	upw      traceFile
	pages    []iotrace.SweepRequest
	pageKeys [][]iotrace.ScenarioKey
	pageBody [][]byte                       // each page's response at fill time
	cells    map[iotrace.ScenarioKey][]byte // each cell as served at fill time
	requests []logEntry
	expect   [][]iotrace.ScenarioKey // per request, the cells it must return
	wantBody [][]byte                // per request, the body it must return
	cacheCap int
	dataDir  string
	svc      *service
	meanRTT  time.Duration
}

// warmPageCells is the number of cells in one /sweep page.
const warmPageCells = 16

// maxReplayGets bounds the result-cache accesses the traced pass replays.
const maxReplayGets = 50000

func setupServeWarm(e *env) (instance, error) {
	chunks, cacheCap, perClient := 8, 128, 4096
	if e.short {
		chunks, cacheCap, perClient = 1, 16, 256
	}
	files, err := genUploads(filepath.Join(e.dir, "traces"), e.seed, []string{"upw"}, 1)
	if err != nil {
		return nil, err
	}
	wi := &warmInst{upw: files[0], cells: map[iotrace.ScenarioKey][]byte{}, cacheCap: cacheCap, dataDir: filepath.Join(e.dir, "data")}
	// Pages tile the cell space: 8 cache sizes x 2 block sizes for each
	// read-ahead and write-behind setting.
	for _, ra := range []bool{true, false} {
		for _, wb := range []bool{true, false} {
			for c := 0; c < chunks; c++ {
				g := iotrace.GridSpec{BlockKB: []int64{4, 8}, ReadAhead: []bool{ra}, WriteBehind: []bool{wb}}
				for i := 1; i <= 8; i++ {
					g.CacheMB = append(g.CacheMB, int64(8*c+i))
				}
				wi.pages = append(wi.pages, iotrace.SweepRequest{Trace: wi.upw.name, Grid: g})
			}
		}
	}

	// Fill: a first server computes every cell into the data directory.
	fill, err := startService(nil, iotrace.ServerConfig{DataDir: wi.dataDir, Workers: sweepWorkers})
	if err != nil {
		return nil, err
	}
	up, err := uploadEntry(0, wi.upw, e.dir)
	if err != nil {
		return nil, err
	}
	if err := writeLog(filepath.Join(e.dir, "uploads.ndjson"), []logEntry{up}); err != nil {
		return nil, err
	}
	var pageLog []logEntry
	for i, pg := range wi.pages {
		en, err := jsonEntry(i%serveClients, "/sweep", pg)
		if err != nil {
			return nil, err
		}
		pageLog = append(pageLog, en)
	}
	wi.pageKeys = make([][]iotrace.ScenarioKey, len(wi.pages))
	wi.pageBody = make([][]byte, len(wi.pages))
	var mu sync.Mutex
	rp := newReplayer(fill.ts.URL, serveClients, e.dir)
	// The upload must land before any page asks for its trace.
	fails := rp.run([]logEntry{up}, time.Time{}, false).fails
	rp.check = func(page int, body []byte) error {
		var resp iotrace.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, raw := range resp.Cells {
			var h cellHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return err
			}
			if h.Error != "" {
				return fmt.Errorf("fill %q: %s", h.Scenario, h.Error)
			}
			wi.cells[h.Key] = append([]byte(nil), raw...)
			wi.pageKeys[page] = append(wi.pageKeys[page], h.Key)
		}
		wi.pageBody[page] = append([]byte(nil), body...)
		return nil
	}
	fails = append(fails, rp.run(pageLog, time.Time{}, false).fails...)
	rp.close()
	if len(fails) > 0 {
		fill.close()
		return nil, fmt.Errorf("fill: request %d: %w", fails[0].entry, fails[0].err)
	}
	st, err := statsOf(fill.ts.URL)
	if err != nil {
		return nil, err
	}
	if err := fill.close(); err != nil {
		return nil, err
	}
	want := len(wi.pages) * warmPageCells
	if len(wi.cells) != want || st["executed_cells"] != int64(want) {
		return nil, fmt.Errorf("fill: %d distinct cells, %d executed; want %d", len(wi.cells), st["executed_cells"], want)
	}

	if err := wi.genRequests(e, perClient); err != nil {
		return nil, err
	}
	// The measured server restarts over the filled directory with a
	// memory tier that holds a quarter of the cells.
	wi.svc, err = startService(nil, wi.serverConfig())
	return wi, err
}

func (wi *warmInst) serverConfig() iotrace.ServerConfig {
	return iotrace.ServerConfig{DataDir: wi.dataDir, Workers: sweepWorkers, CacheEntries: wi.cacheCap}
}

// genRequests draws each client's seeded uniform mix: 60% /simulate of
// one cell, 30% /sweep pages, 10% GET /results of one cell, and the
// body each must return: the page or cell as served at fill time.
func (wi *warmInst) genRequests(e *env, perClient int) error {
	lines := map[iotrace.ScenarioKey][]byte{}
	line := func(k iotrace.ScenarioKey) []byte {
		if lines[k] == nil {
			lines[k] = append(append([]byte(nil), wi.cells[k]...), '\n')
		}
		return lines[k]
	}
	for cl := 0; cl < serveClients; cl++ {
		rng := rand.New(rand.NewPCG(e.seed, uint64(cl)))
		for i := 0; i < perClient; i++ {
			p := rng.IntN(len(wi.pages))
			j := rng.IntN(warmPageCells)
			key := wi.pageKeys[p][j]
			var en logEntry
			var err error
			switch r := rng.IntN(10); {
			case r < 6:
				g := wi.pages[p].Grid
				cache, block := g.CacheMB[j%8], g.BlockKB[j/8]
				ra, wb := g.ReadAhead[0], g.WriteBehind[0]
				spec := iotrace.ConfigSpec{CacheMB: &cache, BlockKB: &block, ReadAhead: &ra, WriteBehind: &wb}
				en, err = jsonEntry(cl, "/simulate", iotrace.SimulateRequest{Trace: wi.upw.name, Config: spec})
				wi.expect = append(wi.expect, []iotrace.ScenarioKey{key})
				wi.wantBody = append(wi.wantBody, line(key))
			case r < 9:
				en, err = jsonEntry(cl, "/sweep", wi.pages[p])
				wi.expect = append(wi.expect, wi.pageKeys[p])
				wi.wantBody = append(wi.wantBody, wi.pageBody[p])
			default:
				en = logEntry{Client: cl, Method: http.MethodGet, Path: "/results/" + string(key)}
				wi.expect = append(wi.expect, []iotrace.ScenarioKey{key})
				wi.wantBody = append(wi.wantBody, line(key))
			}
			if err != nil {
				return err
			}
			wi.requests = append(wi.requests, en)
		}
	}
	return writeLog(filepath.Join(e.dir, "requests.ndjson"), wi.requests)
}

func (wi *warmInst) close() error { return wi.svc.close() }

// check holds a warm response to the body served at fill time. A byte
// comparison keeps the client's share of the two cores small.
func (wi *warmInst) check(idx int, body []byte) error {
	if !bytes.Equal(body, wi.wantBody[idx]) {
		return fmt.Errorf("%s %s: body differs from fill time", wi.requests[idx].Method, wi.requests[idx].Path)
	}
	return nil
}

// warmPass is what one pass of serve-warm traffic produced.
type warmPass struct {
	replayed
	elapsed time.Duration
	cells   int
	stats   map[string]int64
}

// traffic sends the mix for the given time and checks that the service
// simulated nothing.
func (wi *warmInst) traffic(s *service, rec *recorder, seconds float64, o *outcome) (*warmPass, error) {
	rp := newReplayer(s.ts.URL, serveClients, "")
	defer rp.close()
	rp.rec = rec
	rp.check = wi.check
	start := time.Now()
	p := &warmPass{replayed: rp.run(wi.requests, start.Add(time.Duration(seconds*float64(time.Second))), true)}
	p.elapsed = time.Since(start)
	for _, sm := range p.samples {
		p.cells += len(wi.expect[sm.entry])
	}
	var err error
	if p.stats, err = statsOf(s.ts.URL); err != nil {
		return nil, err
	}
	if n := p.stats["executed_cells"]; n != 0 {
		o.fail("warm service ran %d simulations, want 0", n)
	}
	return p, nil
}

func (wi *warmInst) run(e *env) (*outcome, error) {
	o := &outcome{}
	p, err := wi.traffic(wi.svc, nil, e.seconds, o)
	if err != nil {
		return nil, err
	}
	if err := addPeakRSS(o); err != nil {
		return nil, err
	}
	lat := tally(o, p.replayed)
	wi.meanRTT = meanDur(p.samples)
	sec := p.elapsed.Seconds()
	o.add("cells_per_s", float64(p.cells)/sec, "cells/s")
	addLatency(o, lat)
	o.add("req_per_s", float64(len(p.samples))/sec, "req/s")
	o.note("%d cells cached, %d in the memory tier; %d requests served %d cells", len(wi.cells), wi.cacheCap, len(p.samples), p.cells)
	return o, nil
}

func (wi *warmInst) trace(e *env) (*outcome, error) {
	o := &outcome{}
	rec := e.rec
	// Restart again, so the traced pass also starts with an empty
	// memory tier.
	if err := wi.svc.close(); err != nil {
		return nil, err
	}
	var err error
	if wi.svc, err = startService(rec, wi.serverConfig()); err != nil {
		return nil, err
	}
	p, err := wi.traffic(wi.svc, rec, e.seconds/2, o)
	if err != nil {
		return nil, err
	}
	tally(o, p.replayed)
	flightMetrics(o, p.stats)
	o.add("trace.overhead", float64(meanDur(p.samples))/float64(wi.meanRTT), "ratio")

	w, err := iotrace.New(iotrace.ImportedFile(wi.upw.name, wi.upw.path, wi.upw.format.opts()...))
	if err != nil {
		return nil, err
	}
	fp, err := w.Fingerprint()
	if err != nil {
		return nil, err
	}
	base, err := iotrace.ConfigSpec{}.Config()
	if err != nil {
		return nil, err
	}
	g, err := wi.pages[0].Grid.Grid(base)
	if err != nil {
		return nil, err
	}
	scens := g.Scenarios()
	feeds, err := loadFeeds([]traceFile{wi.upw})
	if err != nil {
		return nil, err
	}
	var es engineStats
	r, err := es.cell(rec, -1, 0, scens[0], feeds)
	if err != nil {
		return nil, err
	}
	es.report(o)
	if err := oneCellSweep(rec, w, scens[0], es.setup+es.run, o); err != nil {
		return nil, err
	}

	var ops []cacheOp
	for k, v := range wi.cells {
		ops = append(ops, cacheOp{opPut, string(k), v})
	}
	ops = append(ops, cacheOp{kind: opRestart})
	// The traced traffic's cell accesses in order, up to maxReplayGets:
	// enough to time both tiers, few enough to keep the pass small.
	gets := 0
	for _, sm := range p.samples {
		for _, k := range wi.expect[sm.entry] {
			if gets < maxReplayGets {
				ops = append(ops, cacheOp{opGet, string(k), nil})
				gets++
			}
		}
	}
	in := replayInput{
		files: []traceFile{wi.upw}, resolve: []traceFile{wi.upw}, keys: scens,
		marshal:  []iotrace.SweepResult{{Scenario: scens[0], Result: r, Key: scens[0].Key(fp)}},
		cacheCap: wi.cacheCap, cacheOps: ops,
	}
	if err := replayLayers(e, in, o); err != nil {
		return nil, err
	}
	httpMetrics(o, rec.snapshot(), p.samples, serviceLoad{cells: p.cells})
	return o, finishTrace(e, "serve-warm", o)
}
