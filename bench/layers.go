package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iotrace"
	"iotrace/internal/svc"
)

// The layer replay calls, on a workload's own inputs, the public
// functions an iosimd request composes, each under its own span: the
// decoder loop, Digest and BlobStore.Put, New(ImportedFile) plus
// Fingerprint, Scenario.Key, NewResultView plus json.Marshal,
// Flight.Do, and ResultCache Get/Put. A layer that the untraced run
// exercises only inside the server is timed here.

// replayInput is what the replay feeds each layer.
type replayInput struct {
	files    []traceFile           // decoded and stored, as uploads are
	resolve  []traceFile           // resolved into one workload, as a request's trace is
	keys     []iotrace.Scenario    // keyed against the resolved fingerprint
	marshal  []iotrace.SweepResult // marshaled as served cells
	cacheCap int                   // result-cache memory entries; <= 0 is the service default
	cacheOps []cacheOp
}

// cacheOp is one result-cache access of the replayed sequence.
type cacheOp struct {
	kind int // opGet, opPut or opRestart
	key  string
	val  []byte
}

const (
	opGet = iota
	opPut
	opRestart // reopen the cache over its directory, memory tier empty
)

// coldCacheOps is the access sequence of serving new cells: each key
// misses, is stored, and hits; then the service restarts and every cell
// is read back from disk.
func coldCacheOps(scens []iotrace.Scenario, fp string, views [][]byte) []cacheOp {
	var ops []cacheOp
	for i, sc := range scens {
		k := string(sc.Key(fp))
		ops = append(ops, cacheOp{opGet, k, nil}, cacheOp{opPut, k, views[i]}, cacheOp{opGet, k, nil})
	}
	ops = append(ops, cacheOp{kind: opRestart})
	for _, sc := range scens {
		ops = append(ops, cacheOp{opGet, string(sc.Key(fp)), nil})
	}
	return ops
}

// replayLayers runs the replay under one "replay" span and adds the
// decode, store and result-cache metrics.
func replayLayers(e *env, in replayInput, o *outcome) error {
	rec := e.rec
	root := rec.begin("replay", -1, 0)
	defer rec.end(root)
	dir := filepath.Join(e.dir, "replay")
	defer os.RemoveAll(dir)
	store, err := svc.NewBlobStore(filepath.Join(dir, "traces"))
	if err != nil {
		return err
	}

	var ms runtime.MemStats
	var decodeT, storeT time.Duration
	var nbytes, recs int64
	var allocs uint64
	for _, f := range in.files {
		body, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		sp := rec.begin("decode", root, 0)
		n, err := decodeAll(body, f.format)
		decodeT += rec.end(sp)
		if err != nil {
			return fmt.Errorf("decode %s: %w", f.name, err)
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - m0
		recs += n

		sp = rec.begin("store", root, 0)
		digest := svc.Digest(body)
		_, _, err = store.Put(body, map[string]string{"name": f.name, "format": f.format.name})
		storeT += rec.end(sp)
		if err != nil {
			return err
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "traces", digest)); !bytes.Equal(got, body) {
			o.fail("blob store: %s does not read back as uploaded", f.name)
		}
		o.attempted++
		nbytes += int64(len(body))
	}
	mb := float64(nbytes) / 1e6
	o.add("decode.mb_per_s", mb/decodeT.Seconds(), "MB/s")
	o.add("decode.allocs_per_op", float64(allocs)/float64(max(recs, 1)), "count")
	o.add("store.ms_per_mb", float64(storeT)/1e6/mb, "ms/MB")

	sp := rec.begin("resolve", root, 0)
	opts := make([]iotrace.Option, len(in.resolve))
	for i, f := range in.resolve {
		opts[i] = iotrace.ImportedFile(f.name, f.path, f.format.opts()...)
	}
	w, err := iotrace.New(opts...)
	if err != nil {
		return err
	}
	fp, err := w.Fingerprint()
	rec.end(sp)
	if err != nil {
		return err
	}
	for _, sc := range in.keys {
		sp := rec.begin("key", root, 0)
		sc.Key(fp)
		rec.end(sp)
	}
	var flight svc.Flight
	for _, r := range in.marshal {
		sp := rec.begin("marshal", root, 0)
		js, err := cellJSON(r.Scenario.Name, r.Key, r.Result)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("flight", root, 0)
		_, joined, _ := flight.Do(string(r.Key), func() ([]byte, error) { return js, nil })
		rec.end(sp)
		if joined {
			o.fail("flight: a lone call to %s joined another", r.Key)
		}
	}
	return replayCache(rec, root, filepath.Join(dir, "results"), in.cacheCap, in.cacheOps, o)
}

// decodeAll runs the streaming decoder loop over body.
func decodeAll(body []byte, f traceFormat) (int64, error) {
	dec, err := iotrace.NewTraceDecoder(bytes.NewReader(body), f.opts()...)
	if err != nil {
		return 0, err
	}
	var rec iotrace.Record
	var n int64
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

// replayCache replays a result-cache access sequence. Whether a Get is
// served from memory is read off a memory-only twin cache of the same
// capacity fed the same sequence, so the split holds whatever eviction
// policy the cache uses.
func replayCache(rec *recorder, parent int, dir string, capacity int, ops []cacheOp, o *outcome) error {
	var real, twin *svc.ResultCache
	open := func() error {
		var err error
		if real, err = svc.NewResultCache(dir, capacity); err != nil {
			return err
		}
		twin, err = svc.NewResultCache("", capacity)
		return err
	}
	if err := open(); err != nil {
		return err
	}
	var memT, diskT, putT time.Duration
	var mem, disk, puts, gets int
	vals := map[string][]byte{}
	for _, op := range ops {
		switch op.kind {
		case opRestart:
			if err := open(); err != nil {
				return err
			}
		case opPut:
			sp := rec.begin("rcache.put", parent, 0)
			err := real.Put(op.key, op.val)
			putT += rec.end(sp)
			if err != nil {
				return err
			}
			if err := twin.Put(op.key, op.val); err != nil {
				return err
			}
			vals[op.key] = op.val
			puts++
		case opGet:
			gets++
			_, inMem := twin.Get(op.key)
			name := "rcache.get.disk"
			if inMem {
				name = "rcache.get.mem"
			}
			sp := rec.begin(name, parent, 0)
			v, ok := real.Get(op.key)
			d := rec.end(sp)
			switch {
			case inMem:
				mem++
				memT += d
			case ok:
				disk++
				diskT += d
				if err := twin.Put(op.key, v); err != nil {
					return err
				}
			}
			if want, stored := vals[op.key]; ok != stored || (ok && !bytes.Equal(v, want)) {
				o.fail("result cache: get %s returned %d bytes (found %v), want %d (stored %v)", op.key, len(v), ok, len(want), stored)
			}
		}
	}
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1)) }
	o.add("rcache.mem_get_us", us(memT, mem), "us")
	o.add("rcache.disk_get_us", us(diskT, disk), "us")
	o.add("rcache.put_us", us(putT, puts), "us")
	o.add("rcache.mem_hit_ratio", float64(mem)/float64(max(gets, 1)), "ratio")
	return nil
}

// meanSpan returns the mean duration of the spans named name.
func meanSpan(spans []span, name string) time.Duration {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.name == name && s.end >= 0 {
			total += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// serviceLoad is what the traced HTTP traffic asked of the layers, so
// the handler time they leave unexplained can be computed.
type serviceLoad struct {
	uploadBytes int64
	cells       int     // cells in responses
	executed    int     // cells the server simulated
	engineCell  float64 // seconds per simulated cell, from direct engine runs
}

// httpMetrics adds the HTTP layer's metrics from client and handler
// spans: handler time, transport time (round trip minus handler), the
// handler time the replayed layer costs do not explain (queueing for
// the pool, flight waits, routing and request JSON), and response size.
func httpMetrics(o *outcome, spans []span, samples []sample, load serviceLoad) {
	client := map[int64]time.Duration{}
	handler := map[int64]time.Duration{}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		switch s.name {
		case "http.client":
			client[s.req] += s.end - s.start
		case "http.handler":
			handler[s.req] += s.end - s.start
		}
	}
	var hSum, tSum time.Duration
	for req, c := range client {
		hSum += handler[req]
		tSum += c - handler[req]
	}
	n := float64(max(len(client), 1))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }

	// The replay's per-unit costs, as replayLayers reported them.
	val := func(name string) float64 { m, _ := o.get(name); return m.Value }
	var perByte float64
	if r := val("decode.mb_per_s"); r > 0 {
		perByte = 1 / (r * 1e6)
	}
	perByte += val("store.ms_per_mb") / 1e9
	hit := val("rcache.mem_hit_ratio")
	get := hit*val("rcache.mem_get_us")/1e6 + (1-hit)*val("rcache.disk_get_us")/1e6
	explained := float64(load.uploadBytes)*perByte +
		float64(load.cells)*(meanSpan(spans, "key").Seconds()+get) +
		float64(load.executed)*(load.engineCell+(meanSpan(spans, "marshal")+meanSpan(spans, "rcache.put")).Seconds())

	o.add("http.handler_us", us(hSum), "us")
	o.add("http.transport_us", us(tSum), "us")
	o.add("http.unattributed_us", (hSum.Seconds()-explained)*1e6/n, "us")
	var bytesSum int
	for _, s := range samples {
		bytesSum += int(s.bytes)
	}
	o.add("resp.kb_per_req", float64(bytesSum)/1024/float64(max(len(samples), 1)), "KB")
}

// serviceMetrics are the per-layer metrics of the HTTP and coalescing
// layers, which only the serve-* workloads run.
var serviceMetrics = []metric{
	{Name: "flight.executed", Unit: "count"},
	{Name: "flight.coalesced", Unit: "count"},
	{Name: "flight.coalesce_ratio", Unit: "ratio"},
	{Name: "http.handler_us", Unit: "us"},
	{Name: "http.transport_us", Unit: "us"},
	{Name: "http.unattributed_us", Unit: "us"},
	{Name: "resp.kb_per_req", Unit: "KB"},
}

// noService reports the HTTP and coalescing metrics of a library
// workload, which runs neither layer, as 0, so that its summary line
// still names every per-layer metric.
func noService(o *outcome) {
	for _, m := range serviceMetrics {
		o.add(m.Name, 0, m.Unit)
	}
	o.note("no HTTP or coalescing layer runs here; their metrics read 0")
}

// statsOf reads the server's counters.
func statsOf(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// flightMetrics adds the coalescing counters of a server's /stats.
func flightMetrics(o *outcome, st map[string]int64) {
	exec, co := st["executed_cells"], st["coalesced"]
	o.add("flight.executed", float64(exec), "count")
	o.add("flight.coalesced", float64(co), "count")
	o.add("flight.coalesce_ratio", float64(co)/float64(max(exec+co, 1)), "ratio")
}

// newTestServer starts an iosimd Server on a loopback listener, wrapped
// in handler spans when rec is set.
func newTestServer(rec *recorder, cfg iotrace.ServerConfig) (*iotrace.Server, *httptest.Server, error) {
	srv, err := iotrace.NewServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = tracedHandler(rec, srv)
	}
	return srv, httptest.NewServer(h), nil
}
