// Package cliflags holds the flag plumbing the iotrace commands share:
// the -format/-csvmap trace-import pair every reader registers, and the
// full simulator-configuration flag set iosim and iosimd build a Config
// from. Each Add function registers flags on a caller-supplied FlagSet
// and returns a group whose methods convert the parsed values through
// the same facade parsers the commands used individually, so usage
// strings, defaults, and error messages stay identical everywhere.
package cliflags

import (
	"flag"

	"iotrace"
)

// Import is the parsed trace-import flag pair (see AddImport).
type Import struct {
	Format *string
	CSVMap *string
}

// AddImport registers the standard -format/-csvmap pair on fs.
func AddImport(fs *flag.FlagSet) *Import {
	return AddImportNamed(fs, "format",
		"trace file format: auto, ascii, binary, ascii-raw, csv, darshan")
}

// AddImportNamed registers the import pair with a custom format-flag
// name and usage (traceconv names its input format -in); the -csvmap
// flag is shared verbatim.
func AddImportNamed(fs *flag.FlagSet, name, usage string) *Import {
	return &Import{
		Format: fs.String(name, "auto", usage),
		CSVMap: fs.String("csvmap", "", "CSV column mapping preset or spec for csv traces (default, azure, or key=value pairs)"),
	}
}

// Options converts the parsed pair into the import SourceOptions every
// facade entry point accepts.
func (im *Import) Options() ([]iotrace.SourceOption, error) {
	return iotrace.ImportOpts(*im.Format, *im.CSVMap)
}

// Sim is the parsed simulator-configuration flag set (see AddSim).
// Split is exposed but deliberately not applied by Config: spindle
// splitting must happen after any sweep axis has set the final volume
// count, so the command owning the sweep applies it (iosim splits the
// single-run config itself and sets Grid.SplitSpindles in sweep mode).
type Sim struct {
	CacheMB      *int64
	BlockKB      *int64
	ReadAhead    *bool
	WriteBehind  *bool
	SSD          *bool
	Warm         *bool
	Limit        *int
	Quantum      *float64
	Queueing     *bool
	Sched        *string
	Volumes      *int
	Placement    *string
	StripeUnitKB *int64
	Split        *bool
	Backbone     *float64
	BSched       *string
	BPeriod      *float64
	Burst        *int64
	Drain        *float64
	Faults       *string
}

// AddSim registers the full simulator configuration flag set on fs.
func AddSim(fs *flag.FlagSet) *Sim {
	return &Sim{
		CacheMB:      fs.Int64("cache", 32, "cache size in MB"),
		BlockKB:      fs.Int64("block", 4, "cache block size in KB"),
		ReadAhead:    fs.Bool("ra", true, "enable read-ahead"),
		WriteBehind:  fs.Bool("wb", true, "enable write-behind"),
		SSD:          fs.Bool("ssd", false, "SSD tier: per-block channel costs, 256 MB default size"),
		Warm:         fs.Bool("warm", false, "preload touched file blocks (data set lives in the cache)"),
		Limit:        fs.Int("limit", 0, "per-process block ownership cap (0 = none)"),
		Quantum:      fs.Float64("quantum", 10, "scheduler quantum in ms"),
		Queueing:     fs.Bool("queueing", false, "FCFS disk queueing (ablation; the paper used none)"),
		Sched:        fs.String("sched", "", "per-volume disk scheduling: fcfs, sstf, scan, or aged-sstf (implies queueing)"),
		Volumes:      fs.Int("volumes", 1, "shard the storage tier into this many volumes"),
		Placement:    fs.String("placement", "stripe", "multi-volume placement: stripe or filehash"),
		StripeUnitKB: fs.Int64("stripeunit", 1024, "stripe unit in KB for -placement stripe"),
		Split:        fs.Bool("split", false, "divide the volume's spindles across the shards (conserved hardware)"),
		Backbone:     fs.Float64("backbone", 0, "shared I/O backbone bandwidth in MB/s (0 = off)"),
		BSched:       fs.String("bsched", "fifo", "backbone scheduling: fifo, fair, or periodic"),
		BPeriod:      fs.Float64("bperiod", 0, "periodic backbone round length in ms (0 = 1000)"),
		Burst:        fs.Int64("burst", 0, "burst-buffer capacity in MB (0 = off)"),
		Drain:        fs.Float64("drain", 0, "burst-buffer drain bandwidth in MB/s (required with -burst)"),
		Faults:       fs.String("faults", "", "fault plan, e.g. vol1:down@200s+30s,backbone:down@800s+10s"),
	}
}

// Config builds the simulator configuration the parsed flags describe —
// the one flag-to-Config path iosim and iosimd share. Backbone
// scheduling and period are always recorded (the engine ignores them at
// 0 MB/s, and sweep axes that raise the bandwidth inherit them); the
// burst buffer and fault plan apply only when their flags are set.
func (s *Sim) Config() (iotrace.Config, error) {
	cfg := iotrace.DefaultConfig()
	if *s.SSD {
		cfg = iotrace.SSDConfig()
	}
	cfg.CacheBytes = *s.CacheMB << 20
	cfg.BlockBytes = *s.BlockKB << 10
	cfg.ReadAhead = *s.ReadAhead
	cfg.WriteBehind = *s.WriteBehind
	cfg.WarmCache = *s.Warm
	cfg.PerProcessBlockLimit = *s.Limit
	cfg.QuantumTicks = iotrace.TicksFromSeconds(*s.Quantum / 1000)
	cfg.DiskQueueing = *s.Queueing
	if *s.Sched != "" {
		pol, err := iotrace.ParseScheduler(*s.Sched)
		if err != nil {
			return cfg, err
		}
		cfg = iotrace.Configure(cfg, iotrace.Scheduling(pol))
	}
	policy, err := iotrace.ParsePlacement(*s.Placement)
	if err != nil {
		return cfg, err
	}
	cfg = iotrace.Configure(cfg,
		iotrace.Volumes(*s.Volumes),
		iotrace.Placement(policy),
	)
	cfg.StripeUnitBytes = *s.StripeUnitKB << 10
	bpol, err := iotrace.ParseBackboneSched(*s.BSched)
	if err != nil {
		return cfg, err
	}
	cfg = iotrace.Configure(cfg, iotrace.Backbone(*s.Backbone, bpol))
	cfg.BackbonePeriodTicks = iotrace.TicksFromSeconds(*s.BPeriod / 1000)
	if *s.Burst > 0 {
		cfg = iotrace.Configure(cfg, iotrace.BurstBuffer(*s.Burst, *s.Drain))
	}
	if *s.Faults != "" {
		plan, err := iotrace.ParseFaultPlan(*s.Faults)
		if err != nil {
			return cfg, err
		}
		cfg = iotrace.Configure(cfg, iotrace.Faults(plan))
	}
	return cfg, nil
}
