package iotrace

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Scenario names one simulator configuration within a sweep.
type Scenario struct {
	Name   string
	Config Config

	// SeedOffset shifts the seeds of the workload's generated
	// applications, giving the scenario its own deterministic trace
	// realization. 0 (the default) replays the workload's own traces, so
	// scenarios compare configurations on identical input — the paper's
	// Figure 8 methodology. External and streamed traces are unaffected.
	SeedOffset uint64
}

// SweepResult pairs a scenario with its simulation outcome.
type SweepResult struct {
	Scenario Scenario
	Result   *Result
	Err      error

	// Key is the cell's stable content-addressed identity (see
	// ScenarioKey): the workload's trace fingerprint combined with the
	// scenario's canonical config and seed offset. It is "" when the
	// workload has no fingerprint (a stream-backed process), in which
	// case the cell cannot be cached or deduplicated.
	Key ScenarioKey
}

// String renders the result compactly (scenario name plus the simulator's
// one-line summary), in a form stable enough to diff across runs.
func (r SweepResult) String() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("%s: error: %v", r.Scenario.Name, r.Err)
	case r.Result == nil:
		return fmt.Sprintf("%s: not run", r.Scenario.Name)
	default:
		return fmt.Sprintf("%s: %v", r.Scenario.Name, r.Result)
	}
}

// Sweep executes every scenario against the workload on a bounded pool of
// worker goroutines (workers <= 0 uses GOMAXPROCS). Scenarios start in
// cost-aware order — highest estimated cache pressure first, so skewed
// grids don't strand the pool behind a late-starting slow scenario — but
// results land in scenario order, and every scenario's simulation is
// single-threaded and deterministic, so the same workload and scenarios
// produce identical results regardless of worker count or start order.
//
// Per-scenario failures land in SweepResult.Err; the returned error is
// non-nil only when ctx was cancelled, in which case unstarted scenarios
// carry the context's error.
//
// Streamed processes are re-ranged by each scenario, concurrently, so
// their sequences must tolerate concurrent ranging (see TraceStream).
// Source-backed processes (Source, TraceFile) are decoded exactly once —
// before the first scenario starts — and every scenario replays the same
// in-memory records.
func (w *Workload) Sweep(ctx context.Context, scenarios []Scenario, workers int) ([]SweepResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	out := make([]SweepResult, len(scenarios))
	for i, sc := range scenarios {
		out[i] = SweepResult{Scenario: sc}
	}
	// Stamp every cell with its stable identity. Computing the trace
	// fingerprint triggers at most the decode the sweep needs anyway;
	// an unfingerprintable workload (streamed process, failing source)
	// leaves the keys empty and the cells uncacheable, nothing more.
	if fp, err := w.Fingerprint(); err == nil {
		for i := range out {
			out[i].Key = scenarios[i].Key(fp)
		}
	}

	// Scenarios sharing a seed offset share one materialized process
	// list; records are never mutated by the simulator, so concurrent
	// scenarios replay the same slices.
	var mu sync.Mutex
	variants := map[uint64][]Process{0: w.Procs}
	procsFor := func(offset uint64) ([]Process, error) {
		mu.Lock()
		defer mu.Unlock()
		if ps, ok := variants[offset]; ok {
			return ps, nil
		}
		ps, err := w.materialize(offset)
		if err == nil {
			variants[offset] = ps
		}
		return ps, err
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sc := scenarios[i]
				procs, err := procsFor(sc.SeedOffset)
				if err != nil {
					out[i].Err = err
					continue
				}
				out[i].Result, out[i].Err = simulateProcs(ctx, sc.Config, procs)
			}
		}()
	}
	var cancelled error
feed:
	for _, i := range scheduleOrder(scenarios, w.traceBytes()) {
		select {
		case idx <- i:
			// Execution order is cost-aware; out[i] keeps output order.
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if cancelled != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Err = cancelled
			}
		}
	}
	return out, cancelled
}

// traceBytes sums the request bytes of the workload's materialized and
// source-backed processes — the numerator of the sweep scheduler's
// cache-pressure proxy. Source-backed processes are counted from the
// source's one decode (Sweep triggers it before any scenario starts, so
// the pass is spent on work every scenario reuses, not on estimation);
// a failing source contributes nothing here and surfaces its error from
// the scenarios themselves. Purely streamed processes contribute nothing
// (scanning them would cost a decode pass per estimate).
func (w *Workload) traceBytes() int64 {
	var total int64
	for _, p := range w.Procs {
		if p.src != nil {
			if b, err := p.src.dataBytes(); err == nil {
				total += b
			}
			continue
		}
		for _, r := range p.Records {
			total += r.RequestBytes()
		}
	}
	return total
}

// scheduleOrder returns the order in which scenario indices start
// executing: most expensive first, so a skewed grid's long-running
// scenarios (tiny caches, synchronous writes) don't start last and leave
// the worker pool idling through a one-scenario tail. The estimate is
// deliberately cheap — write-behind-off scenarios lead (every write pays
// a disk round trip regardless of cache size), then descending backbone
// congestion (trace bytes per backbone byte/s: a congested cell's
// transfers queue behind each other, stretching its wall time far past
// an uncongested twin's), then descending cache pressure (trace bytes
// per cache byte). Ties keep grid order, so the schedule is
// deterministic; per-scenario results and output order are unaffected
// either way.
func scheduleOrder(scenarios []Scenario, traceBytes int64) []int {
	order := make([]int, len(scenarios))
	pressure := make([]float64, len(scenarios))
	congestion := make([]float64, len(scenarios))
	for i := range scenarios {
		order[i] = i
		cache := scenarios[i].Config.CacheBytes
		if cache <= 0 {
			cache = 1
		}
		pressure[i] = float64(traceBytes) / float64(cache)
		if mbps := scenarios[i].Config.BackboneMBps; mbps > 0 {
			congestion[i] = float64(traceBytes) / (mbps * 1e6)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		wbA, wbB := scenarios[a].Config.WriteBehind, scenarios[b].Config.WriteBehind
		if wbA != wbB {
			return !wbA
		}
		if congestion[a] != congestion[b] {
			return congestion[a] > congestion[b]
		}
		return pressure[a] > pressure[b]
	})
	return order
}

// Grid declares a cartesian sweep over the simulator's Figure 8 axes.
// Empty axes keep the base configuration's value; set axes multiply.
// Scenario names record the axes that vary (e.g. "cache=32MB block=4KB").
type Grid struct {
	// Base is the configuration the axes vary; nil means DefaultConfig.
	Base *Config

	CacheMB     []int64 // cache sizes in MB (the paper sweeps 4..256)
	BlockKB     []int64 // cache block sizes in KB (the paper uses 4 and 8)
	Tiers       []Tier  // MainMemory and/or SSD hit costs
	ReadAhead   []bool  // prefetch policy on/off
	WriteBehind []bool  // write buffering on/off
	Volumes     []int   // volume-array widths (1 = the paper's single volume)

	// Schedulers sweeps per-volume disk scheduling policies. Each cell
	// enables disk queueing under its policy (like the Scheduling
	// option), so a grid can contrast FCFS/SSTF/SCAN directly against a
	// base config that leaves queueing off.
	Schedulers []SchedulerPolicy

	// Backbones sweeps shared-backbone bandwidths in MB/s; 0 is the
	// uncongested (backbone-off) cell. The arbitration policy comes from
	// the base config's BackboneSched, so contrasting policies at fixed
	// bandwidth takes one grid per policy (or explicit scenarios).
	Backbones []float64

	// Faults sweeps fault plans: each cell injects its plan's scheduled
	// outages, slowdowns, and blackouts (see the Faults option). A nil
	// entry is the fault-free "faults=off" cell, so one grid can contrast
	// a configuration's healthy and degraded runs directly. Plans whose
	// volume indices exceed a cell's volume count wrap modulo that count.
	Faults []*FaultPlan

	// SplitSpindles divides the base volume's spindles across each
	// scenario's volume array (conserved hardware; see the
	// SplitSpindles ConfigOption). It is applied after the Volumes
	// axis, so every cell splits by its own volume count — the
	// composition a Base config cannot express, since its NumVolumes
	// would be overridden by the axis.
	SplitSpindles bool

	// SeedStep gives scenario i a seed offset of i*SeedStep. 0 (the
	// default) replays identical traces in every scenario.
	SeedStep uint64
}

// axisMod is one value of one grid axis.
type axisMod struct {
	label string
	apply func(*Config)
}

// Scenarios expands the grid in a deterministic order: cache size varies
// fastest, then block size, tier, read-ahead, write-behind, volume
// count, scheduling policy, backbone bandwidth, and fault plan.
func (g Grid) Scenarios() []Scenario {
	base := DefaultConfig()
	if g.Base != nil {
		base = *g.Base
	}

	onOff := func(v bool) string {
		if v {
			return "on"
		}
		return "off"
	}
	// Each axis contributes its values, or a single no-op when unset.
	pad := func(mods []axisMod) []axisMod {
		if len(mods) == 0 {
			return []axisMod{{}}
		}
		return mods
	}
	var caches, blocks, tiers, ras, wbs, vols, scheds, backbones, faults []axisMod
	for _, mb := range g.CacheMB {
		mb := mb
		caches = append(caches, axisMod{fmt.Sprintf("cache=%dMB", mb), func(c *Config) { c.CacheBytes = mb << 20 }})
	}
	for _, kb := range g.BlockKB {
		kb := kb
		blocks = append(blocks, axisMod{fmt.Sprintf("block=%dKB", kb), func(c *Config) { c.BlockBytes = kb << 10 }})
	}
	for _, t := range g.Tiers {
		t := t
		tiers = append(tiers, axisMod{fmt.Sprintf("tier=%v", t), func(c *Config) { c.Tier = t }})
	}
	for _, v := range g.ReadAhead {
		v := v
		ras = append(ras, axisMod{"ra=" + onOff(v), func(c *Config) { c.ReadAhead = v }})
	}
	for _, v := range g.WriteBehind {
		v := v
		wbs = append(wbs, axisMod{"wb=" + onOff(v), func(c *Config) { c.WriteBehind = v }})
	}
	for _, n := range g.Volumes {
		n := n
		vols = append(vols, axisMod{fmt.Sprintf("vols=%d", n), func(c *Config) { c.NumVolumes = n }})
	}
	for _, p := range g.Schedulers {
		p := p
		scheds = append(scheds, axisMod{fmt.Sprintf("sched=%v", p), func(c *Config) {
			c.DiskQueueing = true
			c.Scheduler = p
		}})
	}
	for _, mbps := range g.Backbones {
		mbps := mbps
		label := "backbone=off"
		if mbps > 0 {
			label = fmt.Sprintf("backbone=%gMBps", mbps)
		}
		backbones = append(backbones, axisMod{label, func(c *Config) { c.BackboneMBps = mbps }})
	}
	for _, plan := range g.Faults {
		plan := plan
		label := "faults=off"
		if plan != nil && len(plan.Events) > 0 {
			label = "faults=" + plan.String()
		}
		faults = append(faults, axisMod{label, func(c *Config) { c.Faults = plan }})
	}

	var out []Scenario
	for _, mf := range pad(faults) {
		for _, mbb := range pad(backbones) {
			for _, ms := range pad(scheds) {
				for _, mv := range pad(vols) {
					for _, mwb := range pad(wbs) {
						for _, mra := range pad(ras) {
							for _, mt := range pad(tiers) {
								for _, mb := range pad(blocks) {
									for _, mc := range pad(caches) {
										cfg := base
										var parts []string
										for _, m := range []axisMod{mc, mb, mt, mra, mwb, mv, ms, mbb, mf} {
											if m.apply == nil {
												continue
											}
											m.apply(&cfg)
											parts = append(parts, m.label)
										}
										if g.SplitSpindles {
											cfg.Volume = cfg.Volume.Split(cfg.NumVolumes)
										}
										name := strings.Join(parts, " ")
										if name == "" {
											name = "base"
										}
										out = append(out, Scenario{
											Name:       name,
											Config:     cfg,
											SeedOffset: uint64(len(out)) * g.SeedStep,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
