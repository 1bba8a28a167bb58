// Package sim is a trace-driven, discrete-event reimplementation of the
// paper's cache simulator (§6): a single CPU running several traced
// processes under a round-robin scheduler, a block file cache with
// read-ahead and write-behind, and a simple no-queueing disk model.
//
// Reads that miss suspend the requesting process until the disk delivers;
// cache hits cost only a copy (or an SSD channel transfer, in SSD mode)
// and the process keeps the CPU — the paper's "I/Os to and from the SSD
// are done without suspending the process". Write-behind lets writers
// continue as soon as data is copied into cache, with a background flusher
// draining dirty blocks to disk; turning it off makes writes write-through
// and synchronous. Explicitly asynchronous application requests (les)
// never suspend.
package sim

import (
	"fmt"

	"iotrace/internal/cray"
	"iotrace/internal/trace"
)

// Tier selects what the cache models: a slice of main memory, or the
// solid-state disk treated "as a huge main-memory cache with per-block
// penalties for cache hits" (§6.3).
type Tier int

const (
	MainMemory Tier = iota
	SSD
)

func (t Tier) String() string {
	if t == SSD {
		return "ssd"
	}
	return "main-memory"
}

// Config parameterizes one simulation run. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// CacheBytes and BlockBytes size the cache. The paper sweeps cache
	// size 4..256 MB and block size 4 KB / 8 KB (Figure 8).
	CacheBytes int64
	BlockBytes int64

	// ReadAhead prefetches, after each sequential read, the amount of
	// data just read (§6.2's policy). WriteBehind lets writers continue
	// before data reaches disk.
	ReadAhead   bool
	WriteBehind bool

	// Tier selects main-memory hit costs or SSD channel hit costs.
	Tier Tier

	// PerProcessBlockLimit caps the cache blocks one process may own
	// (0 = no cap). §6.2 found such caps counterproductive.
	PerProcessBlockLimit int

	// WarmCache preloads every file a trace touches into the cache
	// (clean) before the run, for steady-state measurements of data sets
	// that live in the SSD (bvi's staging files did).
	WarmCache bool

	// NumCPUs is the number of processors sharing the ready queue, the
	// cache, and the volume. The paper simulates one CPU; more lets the
	// §2.2 n+1 rule (n+1 resident jobs keep n processors busy) run as
	// stated.
	NumCPUs int

	// Scheduler and OS overheads.
	QuantumTicks   trace.Ticks // round-robin time slice
	SwitchTicks    trace.Ticks // process context-switch overhead
	FSCallTicks    trace.Ticks // file-system code per request
	InterruptTicks trace.Ticks // I/O completion service time

	// Storage models. Volume describes one volume of the array; with
	// NumVolumes > 1 each volume is an independent copy (hardware
	// multiplies). Use cray.Volume.Split to conserve spindles instead.
	Volume cray.Volume
	SSDDev cray.SSD

	// NumVolumes shards the storage tier into this many independent
	// volumes, each with its own head position, busy window, and stats.
	// 1 (the default) is the paper's single striped logical volume and
	// is byte-identical to the pre-sharding engine regardless of
	// Placement.
	NumVolumes int

	// Placement selects how file data maps onto a multi-volume array:
	// PlaceStripe (round-robin in StripeUnitBytes units) or
	// PlaceFileHash (each file wholly on one hashed volume). Ignored
	// when NumVolumes == 1.
	Placement Placement

	// StripeUnitBytes is the granularity of PlaceStripe distribution.
	// It is independent of BlockBytes: the cache blocks at BlockBytes
	// while the array shards at StripeUnitBytes.
	StripeUnitBytes int64

	// DiskQueueing enables request queueing at each volume. The paper's
	// simulator deliberately omitted queueing ("no queueing at the
	// disks"); this is the ablation knob for that simplification.
	DiskQueueing bool

	// Scheduler orders each volume's queued requests when DiskQueueing
	// is on: SchedFCFS (arrival order, byte-identical to the original
	// queueing ablation), SchedSSTF (shortest seek first), or SchedSCAN
	// (the elevator). Ignored without queueing — there is no queue to
	// reorder.
	Scheduler Scheduler

	// MaxFlushRunBlocks bounds how many contiguous dirty blocks the
	// flusher groups into one disk write.
	MaxFlushRunBlocks int

	// RecordPhysical emits a physical-level trace record for every
	// volume access (demand fetch, read-ahead, flusher write-back),
	// exercising the trace format's physical-record half: block-number
	// offsets and operation ids tying physical I/Os to the logical
	// requests that caused them (§4.1).
	RecordPhysical bool

	// FlushDelayTicks makes dirty blocks ineligible for write-behind
	// until they have aged this long — Sprite's delayed-write policy
	// (§2.1). The paper argues the delay buys nothing for supercomputer
	// workloads (files are too big and long-lived to be deleted before
	// the flush); 0 flushes eagerly.
	FlushDelayTicks trace.Ticks

	// FrontBytes sizes an optional main-memory tier in front of the
	// cache: §6.4's recommended configuration pairs "as much SSD storage
	// as possible" with "a smaller main memory cache". Blocks resident
	// in the front tier hit at memory-copy cost instead of the SSD
	// channel cost. 0 disables the tier (the paper's single-level runs).
	FrontBytes int64

	// RateBinTicks is the bin width of the result's rate series.
	RateBinTicks trace.Ticks

	// BackboneMBps caps the shared I/O backbone every cache<->volume
	// transfer must cross, in MB/s aggregate across all applications.
	// 0 (the default) disables the backbone entirely: transfers
	// complete the moment their volume service does, byte-identical to
	// the isolated engine the paper describes.
	BackboneMBps float64

	// BackboneSched selects how the backbone arbitrates bandwidth among
	// applications: BackboneFIFO (uncoordinated global queue),
	// BackboneFairShare (max-min fair, recomputed at arrival/departure
	// epochs), or BackbonePeriodic (fixed round-based per-app windows).
	// Ignored when BackboneMBps == 0.
	BackboneSched BackboneSched

	// BackbonePeriodTicks is the period of BackbonePeriodic's round
	// (divided evenly into one window per application). 0 defaults to
	// one second. Ignored by the other schedulers.
	BackbonePeriodTicks trace.Ticks

	// BurstBufferMB sizes an optional burst-buffer tier between the
	// cache and the volume array: volume-bound writes that fit are
	// absorbed at backbone speed and drained to the volumes in the
	// background. 0 disables the tier.
	BurstBufferMB int64

	// BurstDrainMBps is the background drain bandwidth from the burst
	// buffer to the volume array. Required > 0 when BurstBufferMB > 0.
	BurstDrainMBps float64

	// Faults schedules deterministic component failures: volume outages,
	// sustained slowdowns, and backbone blackouts (see ParseFaultPlan for
	// the compact spec form). nil or empty disables fault injection
	// entirely — no fault state is consulted on any hot path and runs
	// replay byte-identically to the fault-free engine.
	Faults *FaultPlan

	// RetryTimeoutTicks bounds how long a request held by a volume
	// outage keeps retrying before it fails unrecoverably (restarting
	// the blocked process from its last checkpoint, or dropping the
	// background write). Must be > 0 when Faults is non-empty.
	RetryTimeoutTicks trace.Ticks

	// RetryBackoffTicks is the initial retry interval for held requests;
	// each unsuccessful attempt doubles it, clamped so the final attempt
	// lands exactly on the RetryTimeoutTicks deadline. Must be > 0 when
	// Faults is non-empty.
	RetryBackoffTicks trace.Ticks
}

// DefaultConfig returns the baseline configuration used by the paper
// reproductions: 32 MB main-memory cache, 4 KB blocks, read-ahead and
// write-behind on, no per-process limit, no disk queueing.
func DefaultConfig() Config {
	return Config{
		NumCPUs:           1,
		CacheBytes:        32 << 20,
		BlockBytes:        4 << 10,
		ReadAhead:         true,
		WriteBehind:       true,
		Tier:              MainMemory,
		QuantumTicks:      1000, // 10 ms
		SwitchTicks:       3,    // 30 us
		FSCallTicks:       10,   // 100 us
		InterruptTicks:    3,    // 30 us
		Volume:            cray.DefaultVolume(),
		SSDDev:            cray.DefaultSSD(),
		NumVolumes:        1,
		Placement:         PlaceStripe,
		StripeUnitBytes:   1 << 20,
		MaxFlushRunBlocks: 256,
		RateBinTicks:      trace.TicksPerSecond,
		// Inert without a fault plan; with one, requests retry for up to
		// 30 s starting at a 1 ms interval.
		RetryTimeoutTicks: 30 * trace.TicksPerSecond,
		RetryBackoffTicks: trace.TicksPerSecond / 1000,
	}
}

// SSDConfig returns the §6.3 configuration: the cache is one processor's
// share of the SSD.
func SSDConfig() Config {
	c := DefaultConfig()
	c.Tier = SSD
	c.CacheBytes = c.SSDDev.PerCPUShareBytes()
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.BlockBytes <= 0 {
		return fmt.Errorf("sim: block size %d", c.BlockBytes)
	}
	if c.CacheBytes < c.BlockBytes {
		return fmt.Errorf("sim: cache %d smaller than one block %d", c.CacheBytes, c.BlockBytes)
	}
	if c.QuantumTicks <= 0 {
		return fmt.Errorf("sim: quantum %d", c.QuantumTicks)
	}
	if c.NumCPUs < 1 {
		return fmt.Errorf("sim: %d CPUs", c.NumCPUs)
	}
	if c.SwitchTicks < 0 || c.FSCallTicks < 0 || c.InterruptTicks < 0 {
		return fmt.Errorf("sim: negative overhead")
	}
	if c.Volume.Stripe <= 0 {
		return fmt.Errorf("sim: volume stripe %d", c.Volume.Stripe)
	}
	if c.NumVolumes < 1 {
		return fmt.Errorf("sim: %d volumes", c.NumVolumes)
	}
	if c.Placement != PlaceStripe && c.Placement != PlaceFileHash {
		return fmt.Errorf("sim: unknown placement policy %d", c.Placement)
	}
	if c.NumVolumes > 1 && c.Placement == PlaceStripe && c.StripeUnitBytes <= 0 {
		return fmt.Errorf("sim: stripe unit %d bytes", c.StripeUnitBytes)
	}
	if c.MaxFlushRunBlocks <= 0 {
		return fmt.Errorf("sim: flush run %d", c.MaxFlushRunBlocks)
	}
	if c.Scheduler != SchedFCFS && c.Scheduler != SchedSSTF && c.Scheduler != SchedSCAN && c.Scheduler != SchedAgedSSTF {
		return fmt.Errorf("sim: unknown scheduler %d", c.Scheduler)
	}
	if c.RateBinTicks <= 0 {
		return fmt.Errorf("sim: rate bin %d", c.RateBinTicks)
	}
	if c.PerProcessBlockLimit < 0 {
		return fmt.Errorf("sim: per-process limit %d", c.PerProcessBlockLimit)
	}
	if c.FrontBytes < 0 {
		return fmt.Errorf("sim: front tier %d bytes", c.FrontBytes)
	}
	if c.BackboneMBps < 0 {
		return fmt.Errorf("sim: backbone bandwidth %g MB/s", c.BackboneMBps)
	}
	if c.BackboneSched != BackboneFIFO && c.BackboneSched != BackboneFairShare && c.BackboneSched != BackbonePeriodic {
		return fmt.Errorf("sim: unknown backbone scheduler %d", c.BackboneSched)
	}
	if c.BackbonePeriodTicks < 0 {
		return fmt.Errorf("sim: backbone period %d ticks", c.BackbonePeriodTicks)
	}
	if c.BurstBufferMB < 0 {
		return fmt.Errorf("sim: burst buffer %d MB", c.BurstBufferMB)
	}
	if c.BurstBufferMB > 0 && c.BurstDrainMBps <= 0 {
		return fmt.Errorf("sim: burst buffer needs a positive drain bandwidth (got %g MB/s)", c.BurstDrainMBps)
	}
	if c.BurstDrainMBps < 0 {
		return fmt.Errorf("sim: burst drain bandwidth %g MB/s", c.BurstDrainMBps)
	}
	if c.RetryTimeoutTicks < 0 || c.RetryBackoffTicks < 0 {
		return fmt.Errorf("sim: negative retry ticks")
	}
	if c.Faults != nil && len(c.Faults.Events) > 0 {
		if err := c.Faults.validate(); err != nil {
			return err
		}
		if c.RetryTimeoutTicks <= 0 || c.RetryBackoffTicks <= 0 {
			return fmt.Errorf("sim: fault plan needs positive retry timeout and backoff (got %d, %d ticks)", c.RetryTimeoutTicks, c.RetryBackoffTicks)
		}
	}
	return nil
}

// CacheBlocks returns the cache capacity in blocks.
func (c *Config) CacheBlocks() int {
	return int(c.CacheBytes / c.BlockBytes)
}

// hitCost returns the CPU cost of moving size bytes between the process
// and the cache tier.
func (c *Config) hitCost(size int64) trace.Ticks {
	switch c.Tier {
	case SSD:
		us := c.SSDDev.SetupMicros + float64(size)/c.SSDDev.BytesPerMicrosec
		return trace.TicksFromMicroseconds(int64(us))
	default:
		// Main-memory copy at ~2 GB/s, rounded up: a hit always costs at
		// least one tick, so sub-block copies are not free.
		t := trace.TicksFromMicrosecondsCeil((size + 2047) / 2048)
		if t < 1 {
			t = 1
		}
		return t
	}
}
