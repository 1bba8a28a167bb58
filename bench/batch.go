package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"iotrace"
)

// sweepWorkers is the sweep pool width, sized for a two-core machine.
const sweepWorkers = 2

// tenantsFaults takes volume 0 down mid-run and then slows it, so that
// write-through requests time out and processes roll back to their last
// checkpoint.
const tenantsFaults = "vol0:down@30000s+600s,vol0:slow4x@30600s+3000s"

// batchParams describes a library workload: copies of one application
// written to trace files at set-up, then loaded and swept per unit.
type batchParams struct {
	name   string
	app    string
	copies int
	format traceFormat
	grid   iotrace.Grid
}

func fig8Params(short bool) batchParams {
	p := batchParams{
		name: "fig8", app: "venus", copies: 2, format: fmtASCII,
		grid: iotrace.Grid{CacheMB: []int64{4, 8, 16, 32, 64, 128, 256}, BlockKB: []int64{4, 8}},
	}
	if short {
		p.grid = iotrace.Grid{CacheMB: []int64{64, 256}, BlockKB: []int64{8}}
	}
	return p
}

func tenantsParams(short bool) batchParams {
	base := iotrace.DefaultConfig()
	base.WriteBehind = false
	base.BackboneSched = iotrace.BackboneFairShare
	plan, err := iotrace.ParseFaultPlan(tenantsFaults)
	if err != nil {
		panic(err) // a constant the smoke test runs
	}
	p := batchParams{
		name: "tenants", app: "gcm", copies: 36, format: fmtBinary,
		grid: iotrace.Grid{
			Base:       &base,
			Schedulers: []iotrace.SchedulerPolicy{iotrace.SchedFCFS, iotrace.SchedSSTF, iotrace.SchedSCAN, iotrace.SchedAgedSSTF},
			Volumes:    []int{1, 4},
			Backbones:  []float64{0, 40},
			Faults:     []*iotrace.FaultPlan{nil, plan},
		},
	}
	if short {
		p.copies = 4
		p.grid.Schedulers = []iotrace.SchedulerPolicy{iotrace.SchedSSTF}
		p.grid.Backbones = []float64{40}
	}
	return p
}

func setupFig8(e *env) (instance, error)    { return setupBatch(e, fig8Params(e.short)) }
func setupTenants(e *env) (instance, error) { return setupBatch(e, tenantsParams(e.short)) }

type batchInst struct {
	p      batchParams
	files  []traceFile
	scens  []iotrace.Scenario
	oracle []cellHash // nil when this seed and scale have none
	write  string     // oracle path to (re)write instead of checking

	first    []cellHash    // the first unit's cells, which later passes must match
	unitWall time.Duration // mean untraced unit wall time
	unitCPU  time.Duration // mean untraced unit CPU time
}

// setupBatch writes the workload's traces and loads its oracle.
func setupBatch(e *env, p batchParams) (instance, error) {
	b := &batchInst{p: p, scens: p.grid.Scenarios()}
	for i := 0; i < p.copies; i++ {
		recs, err := genRecords(p.app, e.seed, i, uint32(i+1))
		if err != nil {
			return nil, err
		}
		f := traceFile{
			name:   fmt.Sprintf("%s(%d)", p.app, i+1),
			path:   filepath.Join(e.dir, fmt.Sprintf("%s-%d.%s", p.app, i+1, p.format.name)),
			format: p.format,
		}
		if f.bytes, err = writeTrace(f.path, recs, p.format); err != nil {
			return nil, err
		}
		b.files = append(b.files, f)
	}
	if e.seed == 1 && !e.short {
		path := filepath.Join(e.oracles, p.name+".sha256")
		if e.writeOracle {
			b.write = path
		} else {
			var err error
			if b.oracle, err = readOracle(path); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func (b *batchInst) close() error { return nil }

// options builds the workload from the trace files, as a CLI run would.
func (b *batchInst) options() []iotrace.Option {
	opts := make([]iotrace.Option, len(b.files))
	for i, f := range b.files {
		opts[i] = iotrace.TraceFile(f.name, f.path, f.format.native)
	}
	return opts
}

// unit is one request of a batch workload: trace files to report.
func (b *batchInst) unit() (string, []iotrace.SweepResult, error) {
	w, err := iotrace.New(b.options()...)
	if err != nil {
		return "", nil, err
	}
	res, err := w.Sweep(context.Background(), b.scens, sweepWorkers)
	if err != nil {
		return "", nil, err
	}
	return render(res), res, nil
}

// render is the unit's report: one row per cell.
func render(res []iotrace.SweepResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-70s %10s %10s %8s %8s\n", "scenario", "wall (s)", "idle (s)", "hit", "restarts")
	for _, r := range res {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-70s error: %v\n", r.Scenario.Name, r.Err)
			continue
		}
		var restarts int64
		for _, p := range r.Result.Procs {
			restarts += p.Restarts
		}
		fmt.Fprintf(&sb, "%-70s %10.1f %10.1f %8.3f %8d\n", r.Scenario.Name,
			r.Result.WallSeconds(), r.Result.IdleSeconds(), r.Result.Cache.ReadHitRatio(), restarts)
	}
	return sb.String()
}

// checkResult holds every simulated cell to properties any correct run
// has, whatever the seed.
func checkResult(o *outcome, name string, r *iotrace.Result, procs int) {
	switch {
	case len(r.Procs) != procs:
		o.fail("%s: %d processes finished, want %d", name, len(r.Procs), procs)
	case r.WallTicks <= 0:
		o.fail("%s: zero wall time", name)
	case r.Availability < 0 || r.Availability > 1:
		o.fail("%s: availability %v outside [0,1]", name, r.Availability)
	case r.Cache.ReadHitRatio() < 0 || r.Cache.ReadHitRatio() > 1:
		o.fail("%s: read hit ratio %v outside [0,1]", name, r.Cache.ReadHitRatio())
	}
}

func (b *batchInst) run(e *env) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	budget := time.Duration(e.seconds * float64(time.Second))
	cpu0 := cpuTime()
	var lat []float64
	var last time.Duration
	units, cells := 0, 0
	for units == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		report, res, err := b.unit()
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		units++
		// peak_rss_mb is one unit's, as a single run of the CLI sees it;
		// later units would add whatever the previous one left for the
		// collector, and how many units fit varies from run to run.
		if units == 1 {
			if err := addPeakRSS(o); err != nil {
				return nil, err
			}
		}
		lat = append(lat, float64(last)/float64(time.Millisecond))
		o.attempted += len(res)
		cells += len(res)
		if got := strings.Count(report, "\n"); got != len(res)+1 {
			o.fail("report has %d lines, want %d", got, len(res)+1)
		}
		hashes := make([]cellHash, 0, len(res))
		for _, r := range res {
			if r.Err != nil {
				o.fail("%s: %v", r.Scenario.Name, r.Err)
				hashes = append(hashes, cellHash{name: r.Scenario.Name})
				continue
			}
			checkResult(o, r.Scenario.Name, r.Result, len(b.files))
			js, err := cellJSON(r.Scenario.Name, r.Key, r.Result)
			if err != nil {
				return nil, err
			}
			hashes = append(hashes, cellHash{sha256Hex(js), r.Scenario.Name})
		}
		switch {
		case b.first != nil:
			checkOracle(o, hashes, b.first)
		case b.write != "":
			if err := writeOracle(b.write, hashes); err != nil {
				return nil, err
			}
		case b.oracle != nil:
			checkOracle(o, hashes, b.oracle)
		}
		if b.first == nil {
			b.first = hashes
		}
	}
	elapsed := time.Since(start)
	b.unitWall = elapsed / time.Duration(units)
	b.unitCPU = (cpuTime() - cpu0) / time.Duration(units)
	o.add("cells_per_s", float64(cells)/elapsed.Seconds(), "cells/s")
	addLatency(o, lat)
	o.add("req_per_s", float64(units)/elapsed.Seconds(), "req/s")
	return o, nil
}

// trace runs every cell one at a time through the engine's public calls
// on the same records and configs, checks each against the untraced
// sweep, then replays the service layers on the workload's inputs.
func (b *batchInst) trace(e *env) (*outcome, error) {
	rec := e.rec
	o := &outcome{}
	root := rec.begin("run", -1, 0)
	sp := rec.begin("resolve", root, 0)
	w, err := iotrace.New(b.options()...)
	if err != nil {
		return nil, err
	}
	fp, err := w.Fingerprint()
	if err != nil {
		return nil, err
	}
	rec.end(sp)
	sp = rec.begin("decode.feeds", root, 0)
	feeds, err := loadFeeds(b.files)
	if err != nil {
		return nil, err
	}
	rec.end(sp)

	var es engineStats
	res := make([]iotrace.SweepResult, len(b.scens))
	views := make([][]byte, len(b.scens))
	for i, sc := range b.scens {
		cs := rec.begin("cell", root, 0)
		r, err := es.cell(rec, cs, 0, sc, feeds)
		if err != nil {
			return nil, err
		}
		ks := rec.begin("key", cs, 0)
		key := sc.Key(fp)
		rec.end(ks)
		ms := rec.begin("marshal", cs, 0)
		js, err := cellJSON(sc.Name, key, r)
		rec.end(ms)
		rec.end(cs)
		if err != nil {
			return nil, err
		}
		res[i] = iotrace.SweepResult{Scenario: sc, Result: r, Key: key}
		views[i] = js
		o.attempted++
		if h := sha256Hex(js); i >= len(b.first) || h != b.first[i].hash {
			o.fail("traced cell %q differs from the untraced sweep", sc.Name)
		}
	}
	sp = rec.begin("report", root, 0)
	render(res)
	rec.end(sp)
	rec.end(root)

	es.report(o)
	o.add("sweep.tail_idle_s", (sweepWorkers*b.unitWall - es.setup - es.run).Seconds(), "s")
	o.note("engine.cell_max_s is cell %q", es.maxCell)
	o.add("trace.overhead", float64(es.setup+es.run)/float64(b.unitCPU), "ratio")

	in := replayInput{
		files: b.files, resolve: b.files, marshal: res,
		cacheOps: coldCacheOps(b.scens, fp, views),
	}
	if err := replayLayers(e, in, o); err != nil {
		return nil, err
	}
	noService(o)
	return o, finishTrace(e, b.p.name, o)
}
