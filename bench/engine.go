package main

import (
	"fmt"
	"runtime"
	"time"

	"iotrace"
	"iotrace/internal/sim"
)

// feed is one process's validated simulator input, decoded once and
// registered in every traced cell, as Workload.Sweep does.
type feed struct {
	name   string
	data   []*iotrace.Record
	pid    uint32
	endCPU iotrace.Ticks
}

// loadFeeds decodes and validates trace files for direct engine runs.
func loadFeeds(files []traceFile) ([]feed, error) {
	feeds := make([]feed, 0, len(files))
	for _, f := range files {
		recs, err := iotrace.ImportFile(f.path, f.format.opts()...)
		if err != nil {
			return nil, err
		}
		data, pid, endCPU, err := sim.ValidateTrace(f.path, recs)
		if err != nil {
			return nil, err
		}
		feeds = append(feeds, feed{name: f.name, data: data, pid: pid, endCPU: endCPU})
	}
	return feeds, nil
}

// traceFile is one generated trace on disk.
type traceFile struct {
	name   string // process (and upload) name
	path   string
	format traceFormat
	bytes  int64
}

// engineStats accumulates the engine and model layers over cells run
// one at a time through sim.New, AddProcessChecked and Run.
type engineStats struct {
	cells        int
	setup, run   time.Duration
	setupAllocs  uint64
	runAllocs    uint64
	reqs         int64
	maxRun       time.Duration
	maxCell      string
	runByVols    map[int]time.Duration
	cellsByVols  map[int]int
	indexByVols  map[int]int // cells whose scheduler used the pending index
	queueMax     int
	queueWaits   int64
	backboneWait float64
	restarts     int64
	readHits     int64
	readReqs     int64
	spaceStalls  int64
	wasted       int64
	diskOps      int64
}

// cell runs one scenario through the engine under spans and returns its
// result. Allocation counts come from MemStats deltas taken outside the
// timed spans.
func (es *engineStats) cell(rec *recorder, parent int, req int64, sc iotrace.Scenario, feeds []feed) (*iotrace.Result, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	sp := rec.begin("engine.setup", parent, req)
	s, err := sim.New(sc.Config)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, f := range feeds {
		if err := s.AddProcessChecked(f.name, f.data, f.pid, f.endCPU); err != nil {
			return nil, err
		}
	}
	setup := rec.end(sp)
	runtime.ReadMemStats(&ms)
	m1 := ms.Mallocs
	sp = rec.begin("engine.run", parent, req)
	res, err := s.Run()
	run := rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	runtime.ReadMemStats(&ms)
	m2 := ms.Mallocs

	es.cells++
	es.setup += setup
	es.run += run
	es.setupAllocs += m1 - m0
	es.runAllocs += m2 - m1
	for _, f := range feeds {
		es.reqs += int64(len(f.data))
	}
	if run > es.maxRun {
		es.maxRun, es.maxCell = run, sc.Name
	}
	if es.runByVols == nil {
		es.runByVols, es.cellsByVols, es.indexByVols = map[int]time.Duration{}, map[int]int{}, map[int]int{}
	}
	vols := sc.Config.NumVolumes
	es.runByVols[vols] += run
	es.cellsByVols[vols]++
	positional := sc.Config.Scheduler == iotrace.SchedSSTF || sc.Config.Scheduler == iotrace.SchedSCAN
	if es.model(res) >= pendingIndexDepth && sc.Config.DiskQueueing && positional {
		es.indexByVols[vols]++
	}
	return res, nil
}

// pendingIndexDepth is the queue depth at which the simulator's SSTF
// and SCAN schedulers switch from a linear scan to a position index.
const pendingIndexDepth = 32

// model accumulates the simulated machine's counters from one result
// and returns the cell's deepest volume queue.
func (es *engineStats) model(r *iotrace.Result) int {
	depth := 0
	for _, q := range r.VolumeQueues {
		depth = max(depth, q.MaxDepth)
		es.queueWaits += q.Waits
	}
	es.queueMax = max(es.queueMax, depth)
	if r.Backbone != nil {
		es.backboneWait += r.Backbone.WaitSec
	}
	for _, p := range r.Procs {
		es.restarts += p.Restarts
	}
	es.readHits += r.Cache.ReadHitReqs
	es.readReqs += r.Cache.ReadHitReqs + r.Cache.ReadMissReqs
	es.spaceStalls += r.Cache.SpaceStalls
	es.wasted += r.Cache.WastedPrefetch
	es.diskOps += r.Disk.Reads + r.Disk.Writes
	return depth
}

// report adds the engine and model per-layer metrics.
func (es *engineStats) report(o *outcome) {
	cells := float64(max(es.cells, 1))
	o.add("engine.run_s", es.run.Seconds(), "s")
	o.add("engine.ns_per_req", float64(es.run.Nanoseconds())/float64(max(es.reqs, 1)), "ns")
	o.add("engine.allocs_per_cell", float64(es.runAllocs)/cells, "count")
	o.add("engine.cell_max_s", es.maxRun.Seconds(), "s")
	o.add("engine.setup_ms_per_cell", float64(es.setup)/1e6/cells, "ms")
	o.add("engine.setup_allocs_per_cell", float64(es.setupAllocs)/cells, "count")
	for _, v := range []int{1, 4} {
		if n := es.cellsByVols[v]; n > 0 {
			o.add(fmt.Sprintf("engine.run_ms_per_cell.vols%d", v), float64(es.runByVols[v])/1e6/float64(n), "ms")
			o.note("%d of %d vols=%d cells use the pending index (SSTF or SCAN with %d or more requests queued at a volume)", es.indexByVols[v], n, v, pendingIndexDepth)
		}
	}
	o.add("model.queue_max_depth", float64(es.queueMax), "count")
	o.add("model.queue_waits", float64(es.queueWaits), "count")
	o.add("model.backbone_wait_s", es.backboneWait, "sim_s")
	o.add("model.fault_restarts", float64(es.restarts), "count")
	ratio := 0.0
	if es.readReqs > 0 {
		ratio = float64(es.readHits) / float64(es.readReqs)
	}
	o.add("model.read_hit_ratio", ratio, "ratio")
	o.add("model.space_stalls", float64(es.spaceStalls), "count")
	o.add("model.wasted_prefetch", float64(es.wasted), "count")
	o.add("model.disk_ops", float64(es.diskOps), "count")
}
