package sim

import (
	"fmt"
	"strings"
)

// Scenario identity: a simulation result is a pure function of the
// trace records and the *effective* configuration, so two Configs that
// differ only in knobs the engine provably ignores must share one
// identity — otherwise a result cache keyed on the raw struct would
// miss on every cosmetic difference (option order is already irrelevant
// for a plain struct, but "placement of a one-volume array" is not).
//
// Canonical maps a Config onto that effective form; CanonicalString
// renders it as a stable, versioned key=value line. Together they are
// the config half of the facade's ScenarioKey.

// Canonical returns the configuration with every result-irrelevant knob
// normalized to its default, so configs that simulate byte-identically
// compare (and hash) equal:
//
//   - With one volume, Placement and StripeUnitBytes are ignored (every
//     policy replays the paper's single striped volume byte for byte);
//     with PlaceFileHash, StripeUnitBytes is ignored.
//   - Without DiskQueueing there is no queue to reorder, so Scheduler
//     resets to SchedFCFS.
//   - With the backbone off, BackboneSched and BackbonePeriodTicks are
//     ignored; with a non-periodic scheduler the period is ignored.
//   - With no burst buffer, BurstDrainMBps is ignored.
//   - A nil-or-empty FaultPlan disables fault injection entirely, and
//     the retry knobs are consulted only by the degraded paths, so both
//     reset to their defaults.
//
// Every rule mirrors a documented "ignored when ..." contract of the
// Config field it normalizes; the goldens pin the underlying
// equivalences. Knobs that do change results (WarmCache, FrontBytes,
// RecordPhysical, RateBinTicks, the device models, ...) pass through
// untouched, so distinct configurations keep distinct canonical forms.
func (c Config) Canonical() Config {
	def := DefaultConfig()
	if c.NumVolumes == 1 {
		c.Placement = PlaceStripe
		c.StripeUnitBytes = def.StripeUnitBytes
	}
	if c.Placement == PlaceFileHash {
		c.StripeUnitBytes = def.StripeUnitBytes
	}
	if !c.DiskQueueing {
		c.Scheduler = SchedFCFS
	}
	if c.BackboneMBps == 0 {
		c.BackboneSched = BackboneFIFO
		c.BackbonePeriodTicks = 0
	}
	if c.BackboneSched != BackbonePeriodic {
		c.BackbonePeriodTicks = 0
	}
	if c.BurstBufferMB == 0 {
		c.BurstDrainMBps = 0
	}
	if c.Faults != nil && len(c.Faults.Events) == 0 {
		c.Faults = nil
	}
	if c.Faults == nil {
		c.RetryTimeoutTicks = def.RetryTimeoutTicks
		c.RetryBackoffTicks = def.RetryBackoffTicks
	}
	return c
}

// CanonicalString renders the canonical configuration as one stable
// line: a version tag followed by every identity-bearing field in fixed
// order. Equal canonical configs produce equal strings and distinct
// canonical configs distinct strings (each field occupies its own
// delimited slot), which is what makes the string safe to hash into a
// cache key. The "cfg1" tag versions the layout: any future field must
// append a new slot and bump the tag so old cached results cannot alias
// new configurations.
func (c Config) CanonicalString() string {
	c = c.Canonical()
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "cfg1 cache=%d block=%d ra=%t wb=%t tier=%v limit=%d warm=%t",
		c.CacheBytes, c.BlockBytes, c.ReadAhead, c.WriteBehind, c.Tier,
		c.PerProcessBlockLimit, c.WarmCache)
	fmt.Fprintf(&b, " cpus=%d quantum=%d switch=%d fscall=%d intr=%d",
		c.NumCPUs, c.QuantumTicks, c.SwitchTicks, c.FSCallTicks, c.InterruptTicks)
	fmt.Fprintf(&b, " volume=%+v ssd=%+v", c.Volume, c.SSDDev)
	fmt.Fprintf(&b, " vols=%d place=%v unit=%d", c.NumVolumes, c.Placement, c.StripeUnitBytes)
	fmt.Fprintf(&b, " queue=%t sched=%v flushrun=%d flushdelay=%d",
		c.DiskQueueing, c.Scheduler, c.MaxFlushRunBlocks, c.FlushDelayTicks)
	fmt.Fprintf(&b, " phys=%t front=%d ratebin=%d", c.RecordPhysical, c.FrontBytes, c.RateBinTicks)
	fmt.Fprintf(&b, " bb=%g bsched=%v bperiod=%d burst=%d drain=%g",
		c.BackboneMBps, c.BackboneSched, c.BackbonePeriodTicks, c.BurstBufferMB, c.BurstDrainMBps)
	faults := "off"
	if c.Faults != nil {
		faults = c.Faults.String()
	}
	fmt.Fprintf(&b, " faults=%s rtimeout=%d rbackoff=%d",
		faults, c.RetryTimeoutTicks, c.RetryBackoffTicks)
	return b.String()
}
