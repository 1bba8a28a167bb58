// Command bench is the repository's benchmark. It runs four seeded
// workloads — fig8, tenants, serve-cold and serve-warm — each in its
// own process, checks their outputs, and prints every metric as
// "workload metric value unit". A traced run (-trace 1) wraps the same
// calls in spans and reports per-layer metrics. See bench/README.md.
//
//	go run ./bench [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench compare A.json B.json
//	go run ./bench replay -log requests.ndjson -addr http://host:port
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// endToEnd and perLayer are the metrics the last output line carries
// without and with tracing; BENCHMARK.json lists the same names (a test
// holds them equal).
var (
	endToEnd = []string{"setup_s", "cells_per_s", "req_p50_ms", "req_p95_ms", "req_p99_ms", "req_per_s", "peak_rss_mb"}
	perLayer = []string{
		"engine.run_s", "engine.ns_per_req", "engine.allocs_per_cell", "engine.cell_max_s",
		"engine.setup_ms_per_cell", "engine.setup_allocs_per_cell",
		"model.queue_max_depth", "model.queue_waits", "model.backbone_wait_s", "model.fault_restarts",
		"model.read_hit_ratio", "model.space_stalls", "model.wasted_prefetch", "model.disk_ops",
		"sweep.tail_idle_s", "decode.mb_per_s", "decode.allocs_per_op", "store.ms_per_mb", "resolve.ms",
		"key.us_per_cell", "rcache.mem_get_us", "rcache.disk_get_us", "rcache.put_us", "rcache.mem_hit_ratio",
		"flight.executed", "flight.coalesced", "flight.coalesce_ratio",
		"http.handler_us", "http.transport_us", "http.unattributed_us", "marshal.us_per_cell", "resp.kb_per_req",
		"trace.overhead",
	}
)

func main() {
	var err error
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareCmd(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "replay":
		err = replayCmd(args[1:])
	default:
		err = runCmd(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type runFlags struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	out         string
	oracles     string
	writeOracle bool
}

func runCmd(args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "run one workload in this process (default: all, each in its own process)")
	fs.Uint64Var(&f.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&f.seconds, "seconds", 25, "how long the timed phase measures")
	fs.IntVar(&f.trace, "trace", 0, "1: also run the traced pass and report per-layer metrics")
	fs.StringVar(&f.out, "out", filepath.Join(".bench_build", "results.json"), "results file each run is appended to; trace events go beside it")
	fs.StringVar(&f.oracles, "oracles", filepath.Join("bench", "testdata"), "directory of the correctness oracles")
	fs.BoolVar(&f.writeOracle, "write-oracle", false, "record this run's cells as the oracle instead of checking them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", f.trace)
	}
	if f.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if f.workload == "" {
		return runAll(f)
	}
	def, err := lookupWorkload(f.workload)
	if err != nil {
		return err
	}
	if _, err := os.Stat(f.oracles); err != nil {
		return fmt.Errorf("oracles: %w (run from the repository root)", err)
	}
	rec, err := runOne(def, f)
	if err != nil {
		return err
	}
	printOutcomeRecord(os.Stdout, rec)
	if err := appendResults(f.out, rec); err != nil {
		return err
	}
	if err := printSummary(os.Stdout, rec, f.trace == 1); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or were incorrect", def.name, rec.Failed, rec.Attempted)
	}
	return nil
}

// runAll runs every workload in a child process of its own, so no
// workload inherits another's heap, caches or peak RSS.
func runAll(f runFlags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatUint(f.seed, 10),
			"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(f.trace),
			"-out", f.out,
			"-oracles", f.oracles,
			"-write-oracle="+strconv.FormatBool(f.writeOracle),
		)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// runRecord is one run as the results file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Started   time.Time         `json:"started"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Order     []string          `json:"order"`
	Notes     []string          `json:"notes,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func runOne(def workloadDef, f runFlags) (runRecord, error) {
	outDir := filepath.Dir(f.out)
	e := &env{
		seed: f.seed, seconds: f.seconds,
		dir:     filepath.Join(outDir, "work", def.name),
		oracles: f.oracles, outDir: outDir, writeOracle: f.writeOracle,
	}
	started := time.Now().UTC()
	o, err := runWorkload(def, e, f.trace == 1)
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{
		Workload: def.name, Seed: f.seed, Seconds: f.seconds, Traced: f.trace == 1,
		Started: started, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}, Notes: o.notes, Errors: o.errs,
	}
	for _, m := range o.metrics {
		if _, dup := rec.Metrics[m.Name]; !dup {
			rec.Order = append(rec.Order, m.Name)
		}
		rec.Metrics[m.Name] = m
	}
	return rec, nil
}

// printOutcome prints an outcome as "label metric value unit" lines.
func printOutcome(w io.Writer, label string, o *outcome) {
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", label, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s: %s\n", label, n)
	}
	for _, e := range o.errs {
		fmt.Fprintf(w, "# %s: FAILED %s\n", label, e)
	}
}

func printOutcomeRecord(w io.Writer, r runRecord) {
	o := &outcome{notes: r.Notes, errs: r.Errors}
	for _, name := range r.Order {
		m := r.Metrics[name]
		m.Name = name
		o.metrics = append(o.metrics, m)
	}
	printOutcome(w, r.Workload, o)
}

// printSummary prints the last line: one JSON object with the run's
// verdict, counts, and the end-to-end (or, traced, per-layer) metrics.
func printSummary(w io.Writer, r runRecord, traced bool) error {
	names := endToEnd
	if traced {
		names = perLayer
	}
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("%s reported no %s", r.Workload, n)
		}
		ms[n] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendResults adds a run to the results file, creating it if needed.
func appendResults(path string, r runRecord) error {
	var rf resultsFile
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	rf.Runs = append(rf.Runs, r)
	out, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
