package iotrace

import (
	"fmt"

	"iotrace/internal/sim"
)

// PlacementPolicy selects how file data maps onto a sharded volume
// array: PlaceStriped or PlaceFileHash. With one volume every policy is
// the paper's single striped logical volume, byte for byte.
type PlacementPolicy = sim.Placement

// Placement policies (Config.Placement).
const (
	// PlaceStriped distributes file blocks round-robin across the
	// volumes in Config.StripeUnitBytes units, RAID-0 style.
	PlaceStriped = sim.PlaceStripe
	// PlaceFileHash assigns each file wholly to one volume chosen by
	// hashing its file id — the layout that turns one hot file into one
	// hot volume (see examples/sharding).
	PlaceFileHash = sim.PlaceFileHash
)

// VolumeStats is one volume's share of a run's storage activity; see
// Result.Volumes and Result.VolumeImbalance.
type VolumeStats = sim.VolumeStats

// SchedulerPolicy selects how each volume orders its queued requests
// when disk queueing is on: SchedFCFS, SchedSSTF, or SchedSCAN. The
// paper's simulator has no queueing at all; enable it (and pick the
// policy) with the Scheduling option.
type SchedulerPolicy = sim.Scheduler

// Scheduler policies (Config.Scheduler).
const (
	// SchedFCFS services each volume's requests in arrival order —
	// byte-identical to the original queueing ablation.
	SchedFCFS = sim.SchedFCFS
	// SchedSSTF services the pending request with the shortest seek
	// from the current head position.
	SchedSSTF = sim.SchedSSTF
	// SchedSCAN runs the elevator: ascending sweep, then descending.
	SchedSCAN = sim.SchedSCAN
	// SchedAgedSSTF is shortest-seek-first with linear aging: waiting
	// requests gain seek-distance credit over time, bounding the
	// per-process starvation plain SSTF exhibits under sustained load.
	SchedAgedSSTF = sim.SchedAgedSSTF
)

// VolumeQueueStats is one volume's request-queue activity under disk
// queueing; see Result.VolumeQueues.
type VolumeQueueStats = sim.VolumeQueueStats

// ProcQueueStats is one process's share of a volume's queue waits — the
// per-application fairness ledger inside VolumeQueueStats.PerProc.
type ProcQueueStats = sim.ProcQueueStats

// FlushStats summarizes the background flusher's write-back runs,
// including cross-volume overlap; see Result.Flush.
type FlushStats = sim.FlushStats

// BackboneSchedPolicy selects how the shared I/O backbone arbitrates
// bandwidth among applications: BackboneFIFO, BackboneFairShare, or
// BackbonePeriodic. See the Backbone option.
type BackboneSchedPolicy = sim.BackboneSched

// Backbone scheduling policies (Config.BackboneSched).
const (
	// BackboneFIFO is the uncoordinated baseline: one global queue,
	// arrival order, full bandwidth per transfer.
	BackboneFIFO = sim.BackboneFIFO
	// BackboneFairShare divides the backbone max-min fairly among the
	// applications with transfers in flight, recomputing at every
	// arrival and departure.
	BackboneFairShare = sim.BackboneFairShare
	// BackbonePeriodic gives each application an exclusive window of a
	// fixed repeating period — Aupy et al.'s offline periodic schedule.
	BackbonePeriodic = sim.BackbonePeriodic
)

// BackboneStats reports shared-backbone activity with per-application
// attribution; see Result.Backbone.
type BackboneStats = sim.BackboneStats

// BackboneAppStats is one application's share of backbone activity.
type BackboneAppStats = sim.BackboneAppStats

// BurstStats reports burst-buffer activity; see Result.Burst.
type BurstStats = sim.BurstStats

// FaultPlan schedules deterministic component failures — volume
// outages, sustained slowdowns, backbone blackouts — as simulation
// events; see the Faults option and ParseFaultPlan.
type FaultPlan = sim.FaultPlan

// FaultEvent is one scheduled failure of a FaultPlan.
type FaultEvent = sim.FaultEvent

// Fault kinds (FaultEvent.Kind).
const (
	// FaultVolDown takes one volume offline for the event's duration;
	// requests touching it retry with backoff until it recovers or they
	// time out.
	FaultVolDown = sim.FaultVolDown
	// FaultVolSlow multiplies one volume's service times by
	// FaultEvent.Factor for the event's duration.
	FaultVolSlow = sim.FaultVolSlow
	// FaultBackboneDown blacks out the shared backbone for the event's
	// duration; in-flight transfers resume where they stopped.
	FaultBackboneDown = sim.FaultBackboneDown
)

// ParseBackboneSched converts a policy name ("fifo", "fair",
// "periodic") to a BackboneSchedPolicy.
func ParseBackboneSched(s string) (BackboneSchedPolicy, error) {
	return sim.ParseBackboneSched(s)
}

// ParseScheduler converts a policy name ("fcfs", "sstf", "scan",
// "aged-sstf") to a SchedulerPolicy.
func ParseScheduler(s string) (SchedulerPolicy, error) {
	return sim.ParseScheduler(s)
}

// ParseFaultPlan parses a compact fault spec like
// "vol1:down@200s+30s,vol0:slow2x@500s+60s,backbone:down@800s+10s":
// comma-separated events, each <target>:<kind>@<start>+<duration>, with
// target volN or backbone, kind down or slow<factor>x, and times
// suffixed s (seconds) or t (ticks).
func ParseFaultPlan(s string) (*FaultPlan, error) {
	return sim.ParseFaultPlan(s)
}

// ParsePlacement converts a policy name ("stripe", "filehash") to a
// PlacementPolicy.
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch s {
	case "stripe", "striped":
		return PlaceStriped, nil
	case "filehash", "file-hash", "hash":
		return PlaceFileHash, nil
	}
	return 0, fmt.Errorf("iotrace: unknown placement policy %q (want stripe or filehash)", s)
}

// A ConfigOption adjusts one aspect of a simulator Config. Configure
// applies a set of them to a base configuration:
//
//	cfg := iotrace.Configure(iotrace.DefaultConfig(),
//	    iotrace.Volumes(8),
//	    iotrace.Striping(256<<10),
//	)
//
// Config is a plain struct, so setting fields directly is equivalent;
// the options exist to make the common sharding knobs discoverable and
// composable.
type ConfigOption func(*Config)

// Configure returns base with the options applied, leaving base itself
// untouched.
func Configure(base Config, opts ...ConfigOption) Config {
	for _, opt := range opts {
		opt(&base)
	}
	return base
}

// Volumes shards the storage tier into n independent volumes, each with
// its own head position, busy window, and per-volume stats in
// Result.Volumes. Volumes(1) is the paper's single striped volume and
// simulates byte-identically to it.
func Volumes(n int) ConfigOption {
	return func(c *Config) { c.NumVolumes = n }
}

// Striping selects block-level round-robin placement with the given
// stripe unit in bytes: stripe unit k of a file lives on volume
// (k + hash(file)) mod NumVolumes — the per-file hash rotates each
// file's starting volume so small files spread across the array. The
// unit is independent of the cache block size.
func Striping(unit int64) ConfigOption {
	return func(c *Config) {
		c.Placement = PlaceStriped
		c.StripeUnitBytes = unit
	}
}

// Placement selects the placement policy routing files onto a
// multi-volume array. For PlaceStriped the stripe unit can be set with
// Striping; DefaultConfig's unit is 1 MB.
func Placement(p PlacementPolicy) ConfigOption {
	return func(c *Config) { c.Placement = p }
}

// Scheduling enables per-volume disk queueing under the given policy:
// requests to a busy volume wait in its queue and are dispatched in
// FCFS, shortest-seek (SchedSSTF), or elevator (SchedSCAN) order.
// Result.VolumeQueues reports the per-volume depths and waits. The
// paper's configuration has no queueing; Scheduling(SchedFCFS) is the
// classic queueing ablation, byte-identical to setting
// Config.DiskQueueing directly.
func Scheduling(p SchedulerPolicy) ConfigOption {
	return func(c *Config) {
		c.DiskQueueing = true
		c.Scheduler = p
	}
}

// Backbone routes every cache<->volume transfer across a shared I/O
// backbone of the given aggregate bandwidth (MB/s), arbitrated among
// the run's applications by the given policy. With the backbone off
// (the default) each application's transfers complete as if it owned
// the I/O path alone — the paper's isolated model; turning it on
// couples the applications the way a shared interconnect does.
// Result.Backbone reports the crossings, waits, and per-application
// attribution; Result.SystemEfficiency and each process's Dilation
// quantify the congestion.
func Backbone(mbps float64, sched BackboneSchedPolicy) ConfigOption {
	return func(c *Config) {
		c.BackboneMBps = mbps
		c.BackboneSched = sched
	}
}

// BurstBuffer puts a burst-absorbing tier of the given capacity (MB)
// between the cache and the volume array: volume-bound writes that fit
// complete at backbone speed and drain to the volumes in the background
// at drainMBps. Writes that find the buffer full go straight to the
// array. Result.Burst reports absorbs, bypasses, and drains.
func BurstBuffer(mb int64, drainMBps float64) ConfigOption {
	return func(c *Config) {
		c.BurstBufferMB = mb
		c.BurstDrainMBps = drainMBps
	}
}

// Faults injects the given fault plan into the run: the scheduled
// volume outages, slowdowns, and backbone blackouts fire as simulation
// events, with held requests retrying under the config's
// RetryTimeoutTicks/RetryBackoffTicks and processes restarting from
// their last completed checkpoint write on unrecoverable failures.
// Result.Availability, Result.DegradedSec, and the per-process
// Restarts/LostTicks/RetriedRequests report the resilience cost. A nil
// plan (the default) disables fault injection entirely — runs replay
// byte-identically to the fault-free engine.
func Faults(plan *FaultPlan) ConfigOption {
	return func(c *Config) { c.Faults = plan }
}

// SplitSpindles divides the configured volume's spindles across the
// array's NumVolumes shards (conserved hardware: n shards of stripe/n
// spindles each) instead of the default of one full volume per shard
// (hardware multiplies). Apply it after Volumes — it reads the volume
// count already configured. In a Grid whose Volumes axis varies the
// count per scenario, set Grid.SplitSpindles instead: a split baked
// into the Base config would divide by the base count, not each
// cell's.
func SplitSpindles() ConfigOption {
	return func(c *Config) { c.Volume = c.Volume.Split(c.NumVolumes) }
}
