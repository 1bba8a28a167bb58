package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what one workload run is given: the generated-input seed, the
// measuring time, the work directory it owns, and the span recorder
// (nil outside the traced pass).
type env struct {
	seed    uint64
	seconds float64
	short   bool   // the scaled-down inputs of the smoke test; no flag sets it
	dir     string // recreated by each set-up; the last one's traces and request logs stay
	oracles string // directory of the correctness oracles
	outDir  string // where traced runs write their trace-event files
	rec     *recorder

	writeOracle bool // record this run's cells as the oracle
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a pass of a workload reports: operations attempted
// and failed (a failed correctness check counts as a failed operation),
// the first few failure messages, and metrics in print order.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	metrics   []metric
	notes     []string
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit})
}

// note records a line of context printed beside the metrics.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// addLatency reports request latencies (ms) as the median and the p95
// and p99 by nearest rank, and notes the sample count and the highest
// percentile the sample supports.
func addLatency(o *outcome, ms []float64) {
	n := len(ms)
	o.add("req_p50_ms", percentile(ms, 50), "ms")
	o.add("req_p95_ms", percentile(ms, 95), "ms")
	o.add("req_p99_ms", percentile(ms, 99), "ms")
	if tail := supportedTail(n); tail > 0 {
		o.note("latency: %d requests; p%g is the highest percentile with 10 samples beyond it (%.4g ms)", n, tail, percentile(ms, tail))
	} else {
		o.note("latency: %d requests, too few for any percentile to have 10 samples beyond it", n)
	}
}

// fail counts one failed or incorrect operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// merge appends other's counts, failures and metrics to o.
func (o *outcome) merge(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, e := range other.errs {
		if len(o.errs) < 8 {
			o.errs = append(o.errs, e)
		}
	}
	o.metrics = append(o.metrics, other.metrics...)
	o.notes = append(o.notes, other.notes...)
}

func (o *outcome) get(name string) (metric, bool) {
	for _, m := range o.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run is the untraced timed phase plus its correctness checks; it
	// reports every end-to-end metric except setup_s, and reads
	// peak_rss_mb (addPeakRSS) when the timed phase ends, before any
	// check that recomputes results.
	run(e *env) (*outcome, error)
	// trace is the traced pass: the same calls wrapped in spans, then
	// the layer replay. It reports the per-layer metrics; run has
	// happened first, so it can take ratios against the untraced pass.
	trace(e *env) (*outcome, error)
	close() error
}

// workloadDef names a workload and sets it up. Why each workload exists
// is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	setup func(e *env) (instance, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workloadDef{
	{"fig8", setupFig8},
	{"tenants", setupTenants},
	{"serve-cold", setupServeCold},
	{"serve-warm", setupServeWarm},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// A run sets its workload up at least setupMinReps times and, unless
// short, until setupMinTime has passed, at most setupMaxReps times;
// setup_s is the median, so neither the first, cold set-up nor one slow
// one moves it, and a set-up of a few milliseconds is measured many
// times.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupMinTime = time.Second
)

// runWorkload sets def up repeatedly, measures the last set-up untraced,
// and, when traced, measures it again under spans.
func runWorkload(def workloadDef, e *env, traced bool) (*outcome, error) {
	var inst instance
	var setups []float64
	var setupTime time.Duration
	for i := 0; i < setupMaxReps && (i < setupMinReps || !e.short && setupTime < setupMinTime); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		var err error
		if inst, err = def.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		d := time.Since(t)
		setupTime += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	out, err := inst.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	out.metrics = append([]metric{{Name: "setup_s", Value: median(setups), Unit: "s"}}, out.metrics...)
	failedRatio := 0.0
	if out.attempted > 0 {
		failedRatio = float64(out.failed) / float64(out.attempted)
	}
	out.add("failed_ratio", failedRatio, "ratio")
	if !traced {
		return out, nil
	}
	e.rec = newRecorder()
	defer func() { e.rec = nil }()
	tout, err := inst.trace(e)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", def.name, err)
	}
	out.merge(tout)
	return out, nil
}

// addPeakRSS reports the resident-set high-water mark since
// resetPeakRSS as peak_rss_mb.
func addPeakRSS(o *outcome) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.add("peak_rss_mb", rss, "MB")
	return nil
}

// layerMetrics converts a traced pass's spans into the self-time table:
// self seconds and call count per span name.
func layerMetrics(o *outcome, spans []span) {
	var total time.Duration
	lts := selfTimes(spans)
	for _, lt := range lts {
		total += lt.self
	}
	for _, lt := range lts {
		o.add("self."+lt.name+"_s", lt.self.Seconds(), "s")
		o.add("count."+lt.name, float64(lt.count), "count")
	}
	o.add("self.total_s", total.Seconds(), "s")
}

// finishTrace adds the metrics read off span means, the self-time table,
// and writes the spans as trace-event JSON next to the results.
func finishTrace(e *env, workload string, o *outcome) error {
	spans := e.rec.snapshot()
	us := func(name string) float64 { return float64(meanSpan(spans, name).Nanoseconds()) / 1e3 }
	o.add("resolve.ms", us("resolve")/1e3, "ms")
	o.add("key.us_per_cell", us("key"), "us")
	o.add("marshal.us_per_cell", us("marshal"), "us")
	layerMetrics(o, spans)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "trace-"+workload+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	o.note("trace events written to %s", path)
	return nil
}
