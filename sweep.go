package iotrace

import (
	"context"
	"fmt"
	"runtime"
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
// index order and results land in scenario order; every scenario's
// simulation is single-threaded and deterministic, so the same workload
// and scenarios produce identical results regardless of worker count.
//
// Per-scenario failures land in SweepResult.Err; the returned error is
// non-nil only when ctx was cancelled, in which case unstarted scenarios
// carry the context's error.
//
// Streamed processes are re-ranged by each scenario, concurrently, so
// their sequences must tolerate concurrent ranging (see TraceStream).
// Source-backed processes (Source, TraceFile) are decoded exactly once —
// by the trace fingerprint before any scenario starts, or, when a
// streamed process leaves the workload without a fingerprint, by
// whichever scenario reaches the source first — and every scenario
// replays the same in-memory records.
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
	for i := range scenarios {
		select {
		case idx <- i:
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

// axis lists one grid axis's values as labelled config edits.
func axis[T any](vals []T, label func(T) string, apply func(*Config, T)) []axisMod {
	mods := make([]axisMod, len(vals))
	for i, v := range vals {
		mods[i] = axisMod{label(v), func(c *Config) { apply(c, v) }}
	}
	return mods
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
	// In expansion order, fastest-varying first; the same order applies
	// the edits and builds the names.
	axes := [][]axisMod{
		axis(g.CacheMB, func(mb int64) string { return fmt.Sprintf("cache=%dMB", mb) },
			func(c *Config, mb int64) { c.CacheBytes = mb << 20 }),
		axis(g.BlockKB, func(kb int64) string { return fmt.Sprintf("block=%dKB", kb) },
			func(c *Config, kb int64) { c.BlockBytes = kb << 10 }),
		axis(g.Tiers, func(t Tier) string { return fmt.Sprintf("tier=%v", t) },
			func(c *Config, t Tier) { c.Tier = t }),
		axis(g.ReadAhead, func(v bool) string { return "ra=" + onOff(v) },
			func(c *Config, v bool) { c.ReadAhead = v }),
		axis(g.WriteBehind, func(v bool) string { return "wb=" + onOff(v) },
			func(c *Config, v bool) { c.WriteBehind = v }),
		axis(g.Volumes, func(n int) string { return fmt.Sprintf("vols=%d", n) },
			func(c *Config, n int) { c.NumVolumes = n }),
		axis(g.Schedulers, func(p SchedulerPolicy) string { return fmt.Sprintf("sched=%v", p) },
			func(c *Config, p SchedulerPolicy) {
				c.DiskQueueing = true
				c.Scheduler = p
			}),
		axis(g.Backbones, func(mbps float64) string {
			if mbps > 0 {
				return fmt.Sprintf("backbone=%gMBps", mbps)
			}
			return "backbone=off"
		}, func(c *Config, mbps float64) { c.BackboneMBps = mbps }),
		axis(g.Faults, func(plan *FaultPlan) string {
			if plan != nil && len(plan.Events) > 0 {
				return "faults=" + plan.String()
			}
			return "faults=off"
		}, func(c *Config, plan *FaultPlan) { c.Faults = plan }),
	}

	// Unset axes keep the base value and add no label.
	n := 1
	for _, mods := range axes {
		n *= max(len(mods), 1)
	}
	out := make([]Scenario, n)
	for i := range out {
		cfg := base
		var parts []string
		// Scenario i's digits, least significant (cache) first.
		rest := i
		for _, mods := range axes {
			if len(mods) == 0 {
				continue
			}
			m := mods[rest%len(mods)]
			rest /= len(mods)
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
		out[i] = Scenario{Name: name, Config: cfg, SeedOffset: uint64(i) * g.SeedStep}
	}
	return out
}
