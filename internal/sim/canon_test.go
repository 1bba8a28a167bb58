package sim

import (
	"strings"
	"testing"
)

// Two configs that the engine treats identically must canonicalize to
// the same string; every documented "ignored when off" knob is covered.
func TestCanonicalNormalizesIgnoredKnobs(t *testing.T) {
	base := DefaultConfig()
	variants := map[string]func(*Config){
		"placement at one volume": func(c *Config) {
			c.Placement = PlaceFileHash
			c.StripeUnitBytes = 64 << 10
		},
		"scheduler without queueing": func(c *Config) { c.Scheduler = SchedSCAN },
		"backbone sched when off": func(c *Config) {
			c.BackboneSched = BackbonePeriodic
			c.BackbonePeriodTicks = 42
		},
		"drain without burst buffer": func(c *Config) { c.BurstDrainMBps = 99 },
		"retry knobs without faults": func(c *Config) {
			c.RetryTimeoutTicks = 7
			c.RetryBackoffTicks = 3
		},
		"empty fault plan": func(c *Config) { c.Faults = &FaultPlan{} },
	}
	want := base.CanonicalString()
	for name, mutate := range variants {
		c := base
		mutate(&c)
		if got := c.CanonicalString(); got != want {
			t.Errorf("%s: canonical string changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// Knobs that do change simulation results must keep distinct canonical
// strings — a collision here would serve one configuration's cached
// results for another.
func TestCanonicalDistinguishesEffectiveKnobs(t *testing.T) {
	base := DefaultConfig()
	mutations := map[string]func(*Config){
		"cache":        func(c *Config) { c.CacheBytes = 64 << 20 },
		"block":        func(c *Config) { c.BlockBytes = 8 << 10 },
		"read-ahead":   func(c *Config) { c.ReadAhead = false },
		"write-behind": func(c *Config) { c.WriteBehind = false },
		"tier":         func(c *Config) { c.Tier = SSD },
		"limit":        func(c *Config) { c.PerProcessBlockLimit = 100 },
		"warm":         func(c *Config) { c.WarmCache = true },
		"cpus":         func(c *Config) { c.NumCPUs = 2 },
		"quantum":      func(c *Config) { c.QuantumTicks = 500 },
		"volume":       func(c *Config) { c.Volume = c.Volume.Split(2) },
		"volumes":      func(c *Config) { c.NumVolumes = 4 },
		"placement at several volumes": func(c *Config) {
			c.NumVolumes = 4
			c.Placement = PlaceFileHash
		},
		"stripe unit at several volumes": func(c *Config) {
			c.NumVolumes = 4
			c.StripeUnitBytes = 64 << 10
		},
		"queueing": func(c *Config) { c.DiskQueueing = true },
		"scheduler with queueing": func(c *Config) {
			c.DiskQueueing = true
			c.Scheduler = SchedSSTF
		},
		"flush run":   func(c *Config) { c.MaxFlushRunBlocks = 8 },
		"flush delay": func(c *Config) { c.FlushDelayTicks = 100 },
		"physical":    func(c *Config) { c.RecordPhysical = true },
		"front":       func(c *Config) { c.FrontBytes = 4 << 20 },
		"rate bin":    func(c *Config) { c.RateBinTicks = 10 },
		"backbone":    func(c *Config) { c.BackboneMBps = 100 },
		"backbone sched": func(c *Config) {
			c.BackboneMBps = 100
			c.BackboneSched = BackboneFairShare
		},
		"backbone period": func(c *Config) {
			c.BackboneMBps = 100
			c.BackboneSched = BackbonePeriodic
			c.BackbonePeriodTicks = 7
		},
		"burst": func(c *Config) {
			c.BurstBufferMB = 64
			c.BurstDrainMBps = 50
		},
		"drain": func(c *Config) {
			c.BurstBufferMB = 64
			c.BurstDrainMBps = 25
		},
		"faults": func(c *Config) { c.Faults = mustPlan(t, "vol0:down@200s+30s") },
		"retry with faults": func(c *Config) {
			c.Faults = mustPlan(t, "vol0:down@200s+30s")
			c.RetryTimeoutTicks = 12345
		},
	}
	seen := map[string]string{base.CanonicalString(): "base"}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		s := c.CanonicalString()
		if prev, dup := seen[s]; dup {
			t.Errorf("%q and %q collide on canonical string %s", name, prev, s)
		}
		seen[s] = name
	}
}

// The canonical string must be self-delimiting enough that no field can
// bleed into its neighbor: every slot is key=value and fault plans are
// comma-joined tokens without spaces.
func TestCanonicalStringShape(t *testing.T) {
	c := DefaultConfig()
	c.Faults = mustPlan(t, "vol1:down@200s+30s,backbone:down@800s+10s")
	s := c.CanonicalString()
	if !strings.HasPrefix(s, "cfg1 ") {
		t.Errorf("canonical string lacks version tag: %s", s)
	}
	for _, field := range strings.Fields(s)[1:] {
		if !strings.Contains(field, "=") && !strings.Contains(field, ":") {
			t.Errorf("field %q is not key=value", field)
		}
	}
}
