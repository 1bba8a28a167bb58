package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"iotrace/internal/apps"
	"iotrace/internal/trace"
	"iotrace/internal/workload"
)

// The golden fingerprints in testdata/equiv.golden were produced by the
// pre-rewrite event engine (container/heap over *event closures,
// map-based join tracking, per-request key allocation). The typed-event
// engine must reproduce the old engine's Result byte-for-byte: same
// ticks, same counters, same per-process seconds, same rate-series
// shape. testdata/sharded.golden and testdata/sched.golden pin the
// sharded-array and scheduler results the same way.
//
// To capture a deliberate, reviewed behavior change, regenerate the
// files with scripts/regen_goldens.sh (which runs these tests with
// SIM_EQUIV_GOLDEN=write) and commit the diff.

// goldenDir is where golden files are read from and (in write mode)
// written to. SIM_GOLDEN_DIR redirects writes so regen_goldens.sh
// --check can diff fresh goldens against the committed ones.
func goldenDir() string {
	if d := os.Getenv("SIM_GOLDEN_DIR"); d != "" {
		return d
	}
	return "testdata"
}

func goldenWriteMode(t *testing.T) bool {
	t.Helper()
	if os.Getenv("SIM_EQUIV_GOLDEN") != "write" {
		return false
	}
	if testing.Short() {
		t.Fatal("golden write mode needs the full suite: run without -short (scripts/regen_goldens.sh does)")
	}
	return true
}

// loadGoldens reads one tab-separated name/fingerprint file.
func loadGoldens(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("no goldens at testdata/%s (regenerate with scripts/regen_goldens.sh): %v", file, err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		name, fp, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("testdata/%s: malformed line %q", file, line)
		}
		out[name] = fp
	}
	return out
}

// writeGoldens rewrites one golden file, sorted by case name so diffs
// are stable.
func writeGoldens(t *testing.T, file string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%s\n", name, got[name])
	}
	if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), file), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s/%s", len(names), goldenDir(), file)
}

// checkGolden compares one fingerprint against the loaded goldens, with
// the failure mode pointing at the regeneration procedure instead of a
// silent mismatch.
func checkGolden(t *testing.T, goldens map[string]string, file, name, got string) {
	t.Helper()
	want, ok := goldens[name]
	if !ok {
		t.Fatalf("no golden for %s in testdata/%s — if this case is new, run scripts/regen_goldens.sh and commit the result", name, file)
	}
	if got != want {
		t.Errorf("result diverged from testdata/%s:\n got %s\nwant %s\nIf this change is deliberate, run scripts/regen_goldens.sh and commit the updated goldens.",
			file, got, want)
	}
}

// procFP mirrors ProcResult's pre-backbone fields so that fields added
// by the congestion subsystem (Dilation, always 1 with the backbone
// off) do not shift golden bytes.
type procFP struct {
	PID        uint32
	Name       string
	FinishSec  float64
	CPUSec     float64
	BlockedSec float64
}

// fingerprint renders every observable field of a Result in a stable form.
func fingerprint(res *Result) string {
	procs := make([]procFP, len(res.Procs))
	for i, p := range res.Procs {
		procs[i] = procFP{p.PID, p.Name, p.FinishSec, p.CPUSec, p.BlockedSec}
	}
	return fmt.Sprintf(
		"wall=%d busy=%d idle=%d sw=%d cpus=%d|cache=%+v|disk=%+v|procs=%+v|front=%.6f|bins=%d/%d/%d|tot=%.3f/%.3f/%.3f|phys=%d",
		res.WallTicks, res.BusyTicks, res.IdleTicks, res.Switches, res.NumCPUs,
		res.Cache, res.Disk, procs, res.FrontHitRatio,
		res.DiskReadRate.Len(), res.DiskWriteRate.Len(), res.DemandRate.Len(),
		res.DiskReadRate.Total(), res.DiskWriteRate.Total(), res.DemandRate.Total(),
		len(res.Physical))
}

// appPair materializes the two-copy workload the benchmarks replay.
func appPair(t *testing.T, name string) (a, b []*trace.Record) {
	t.Helper()
	spec, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err = workload.Generate(spec.Build(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err = workload.Generate(spec.Build(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func simulatePair(t *testing.T, cfg Config, a, b []*trace.Record) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddProcess("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProcess("b", b); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// equivCase is one (name, config) cell of the equivalence matrix.
type equivCase struct {
	name string
	app  string // "venus" or "ccm"
	cfg  func() Config
}

func equivCases() []equivCase {
	mb := func(n int64) int64 { return n << 20 }
	return []equivCase{
		// The benchmark workload: venus pair at the default configuration.
		{"venus-pair-default", "venus", DefaultConfig},

		// A mini Figure 8 grid on the venus pair: cache size x block size.
		{"venus-f8-cache4-block4", "venus", func() Config {
			c := DefaultConfig()
			c.CacheBytes, c.BlockBytes = mb(4), 4<<10
			return c
		}},
		{"venus-f8-cache128-block4", "venus", func() Config {
			c := DefaultConfig()
			c.CacheBytes, c.BlockBytes = mb(128), 4<<10
			return c
		}},
		{"venus-f8-cache4-block8", "venus", func() Config {
			c := DefaultConfig()
			c.CacheBytes, c.BlockBytes = mb(4), 8<<10
			return c
		}},
		{"venus-f8-cache32-block8", "venus", func() Config {
			c := DefaultConfig()
			c.CacheBytes, c.BlockBytes = mb(32), 8<<10
			return c
		}},

		// Config-space coverage on the cheaper ccm pair: every simulator
		// feature the event engine touches.
		{"ccm-default", "ccm", DefaultConfig},
		{"ccm-wb-off", "ccm", func() Config {
			c := DefaultConfig()
			c.WriteBehind = false
			return c
		}},
		{"ccm-ra-off", "ccm", func() Config {
			c := DefaultConfig()
			c.ReadAhead = false
			return c
		}},
		{"ccm-tiny-cache", "ccm", func() Config {
			c := DefaultConfig()
			c.CacheBytes = mb(1) // space stalls and bypasses
			return c
		}},
		{"ccm-ssd-warm", "ccm", func() Config {
			c := SSDConfig()
			c.WarmCache = true
			return c
		}},
		{"ccm-front-tier", "ccm", func() Config {
			c := SSDConfig()
			c.FrontBytes = mb(8)
			return c
		}},
		{"ccm-per-proc-limit", "ccm", func() Config {
			c := DefaultConfig()
			c.PerProcessBlockLimit = 256
			return c
		}},
		{"ccm-flush-delay", "ccm", func() Config {
			c := DefaultConfig()
			c.FlushDelayTicks = 3000
			return c
		}},
		{"ccm-queueing", "ccm", func() Config {
			c := DefaultConfig()
			c.DiskQueueing = true
			return c
		}},
		{"ccm-4cpu", "ccm", func() Config {
			c := DefaultConfig()
			c.NumCPUs = 4
			return c
		}},
		{"ccm-physical", "ccm", func() Config {
			c := DefaultConfig()
			c.RecordPhysical = true
			return c
		}},
	}
}

// TestShardedPlacementSingleVolumeEquivalence extends the equivalence
// net to the sharded disk model: with NumVolumes == 1, every placement
// policy and any stripe unit must reproduce the pre-sharding engine's
// goldens byte for byte — the N=1 degenerate-case guarantee.
func TestShardedPlacementSingleVolumeEquivalence(t *testing.T) {
	goldens := loadGoldens(t, "equiv.golden")
	appNames := []string{"ccm"}
	if !testing.Short() {
		appNames = append(appNames, "venus")
	}
	traces := map[string][2][]*trace.Record{}
	for _, name := range appNames {
		a, b := appPair(t, name)
		traces[name] = [2][]*trace.Record{a, b}
	}
	variants := []struct {
		name  string
		tweak func(*Config)
	}{
		{"stripe", func(c *Config) { c.Placement = PlaceStripe; c.StripeUnitBytes = 12345 }},
		{"filehash", func(c *Config) { c.Placement = PlaceFileHash }},
	}
	for _, tc := range equivCases() {
		for _, v := range variants {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				tr, ok := traces[tc.app]
				if !ok {
					t.Skipf("%s workload: skipped in -short mode", tc.app)
				}
				cfg := tc.cfg()
				cfg.NumVolumes = 1
				v.tweak(&cfg)
				got := fingerprint(simulatePair(t, cfg, tr[0], tr[1]))
				checkGolden(t, goldens, "equiv.golden", tc.name, got)
			})
		}
	}
}

// volumeFingerprint extends the Result fingerprint with the per-volume
// breakdown the sharded model adds.
func volumeFingerprint(res *Result) string {
	s := fingerprint(res) + "|vols="
	for i, v := range res.Volumes {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf("%+v", v)
	}
	return s + fmt.Sprintf("|imb=%.6f|flush=%+v", res.VolumeImbalance(), res.Flush)
}

// queueFP mirrors VolumeQueueStats' pre-backbone fields so the added
// PerProc breakdown does not shift golden bytes.
type queueFP struct {
	MaxDepth int
	Waits    int64
	WaitSec  float64
}

// schedFingerprint extends the volume fingerprint with the per-volume
// queue statistics DiskQueueing exposes, pinning scheduler behavior.
func schedFingerprint(res *Result) string {
	s := volumeFingerprint(res) + "|queues="
	for i, q := range res.VolumeQueues {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf("%+v", queueFP{q.MaxDepth, q.Waits, q.WaitSec})
	}
	return s
}

func shardedCases() []equivCase {
	return []equivCase{
		{"ccm-4vol-stripe", "ccm", func() Config {
			c := DefaultConfig()
			c.NumVolumes = 4
			c.Placement = PlaceStripe
			c.StripeUnitBytes = 64 << 10
			return c
		}},
		{"ccm-4vol-filehash", "ccm", func() Config {
			c := DefaultConfig()
			c.NumVolumes = 4
			c.Placement = PlaceFileHash
			return c
		}},
		{"ccm-2vol-stripe-queueing", "ccm", func() Config {
			c := DefaultConfig()
			c.NumVolumes = 2
			c.Placement = PlaceStripe
			c.StripeUnitBytes = 256 << 10
			c.DiskQueueing = true
			return c
		}},
		{"ccm-8vol-tiny-cache", "ccm", func() Config {
			c := DefaultConfig()
			c.NumVolumes = 8
			c.Placement = PlaceStripe
			c.StripeUnitBytes = 64 << 10
			c.CacheBytes = 1 << 20
			return c
		}},
		{"ccm-4vol-physical", "ccm", func() Config {
			c := DefaultConfig()
			c.NumVolumes = 4
			c.Placement = PlaceStripe
			c.StripeUnitBytes = 64 << 10
			c.RecordPhysical = true
			return c
		}},
	}
}

func TestShardedVolumeGoldens(t *testing.T) {
	write := goldenWriteMode(t)
	var goldens map[string]string
	if !write {
		goldens = loadGoldens(t, "sharded.golden")
	}
	a, b := appPair(t, "ccm")
	got := map[string]string{}
	for _, tc := range shardedCases() {
		t.Run(tc.name, func(t *testing.T) {
			fp := volumeFingerprint(simulatePair(t, tc.cfg(), a, b))
			if write {
				got[tc.name] = fp
				return
			}
			checkGolden(t, goldens, "sharded.golden", tc.name, fp)
		})
	}
	if write {
		writeGoldens(t, "sharded.golden", got)
	}
}

// schedCases covers the deferred schedulers (SSTF, SCAN) across volume
// widths and placements, including the write-through configurations
// where the disk is the bottleneck and dispatch order genuinely moves
// the results.
func schedCases() []equivCase {
	withSched := func(pol Scheduler, tweak func(*Config)) func() Config {
		return func() Config {
			c := DefaultConfig()
			c.DiskQueueing = true
			c.Scheduler = pol
			if tweak != nil {
				tweak(&c)
			}
			return c
		}
	}
	return []equivCase{
		{"ccm-1vol-sstf", "ccm", withSched(SchedSSTF, nil)},
		{"ccm-1vol-scan", "ccm", withSched(SchedSCAN, nil)},
		{"ccm-1vol-sstf-wtoff", "ccm", withSched(SchedSSTF, func(c *Config) {
			c.WriteBehind = false
		})},
		{"ccm-1vol-scan-wtoff", "ccm", withSched(SchedSCAN, func(c *Config) {
			c.WriteBehind = false
		})},
		{"ccm-4vol-sstf-stripe", "ccm", withSched(SchedSSTF, func(c *Config) {
			c.NumVolumes = 4
			c.StripeUnitBytes = 64 << 10
		})},
		{"ccm-4vol-scan-stripe", "ccm", withSched(SchedSCAN, func(c *Config) {
			c.NumVolumes = 4
			c.StripeUnitBytes = 64 << 10
		})},
		{"ccm-4vol-sstf-filehash", "ccm", withSched(SchedSSTF, func(c *Config) {
			c.NumVolumes = 4
			c.Placement = PlaceFileHash
		})},
		{"ccm-2vol-scan-physical", "ccm", withSched(SchedSCAN, func(c *Config) {
			c.NumVolumes = 2
			c.StripeUnitBytes = 256 << 10
			c.RecordPhysical = true
		})},
		{"ccm-1vol-asstf", "ccm", withSched(SchedAgedSSTF, nil)},
		{"ccm-1vol-asstf-wtoff", "ccm", withSched(SchedAgedSSTF, func(c *Config) {
			c.WriteBehind = false
		})},
		{"ccm-4vol-asstf-stripe", "ccm", withSched(SchedAgedSSTF, func(c *Config) {
			c.NumVolumes = 4
			c.StripeUnitBytes = 64 << 10
		})},
	}
}

// TestSchedulerGoldens pins SSTF and SCAN results (per-volume stats,
// queue depths, and flush overlap included) against their own goldens.
// FCFS needs no new goldens: it replays the pre-scheduler queueing
// goldens byte for byte (TestSchedulerFCFSMatchesQueueingGolden).
func TestSchedulerGoldens(t *testing.T) {
	write := goldenWriteMode(t)
	var goldens map[string]string
	if !write {
		goldens = loadGoldens(t, "sched.golden")
	}
	a, b := appPair(t, "ccm")
	got := map[string]string{}
	for _, tc := range schedCases() {
		t.Run(tc.name, func(t *testing.T) {
			fp := schedFingerprint(simulatePair(t, tc.cfg(), a, b))
			if write {
				got[tc.name] = fp
				return
			}
			checkGolden(t, goldens, "sched.golden", tc.name, fp)
		})
	}
	if write {
		writeGoldens(t, "sched.golden", got)
	}
}

// TestSchedulerFCFSMatchesQueueingGolden is the FCFS half of the
// scheduler acceptance bar: Scheduler=FCFS with queueing on — under
// either placement, with the scheduler field set explicitly — replays
// the pre-scheduler queueing golden byte for byte, because FCFS
// dispatch order is arrival order and its departures are computed in
// closed form exactly as the busyUntil engine always did.
func TestSchedulerFCFSMatchesQueueingGolden(t *testing.T) {
	goldens := loadGoldens(t, "equiv.golden")
	a, b := appPair(t, "ccm")
	for _, placement := range []Placement{PlaceStripe, PlaceFileHash} {
		t.Run(placement.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DiskQueueing = true
			cfg.Scheduler = SchedFCFS
			cfg.Placement = placement
			got := fingerprint(simulatePair(t, cfg, a, b))
			checkGolden(t, goldens, "equiv.golden", "ccm-queueing", got)
		})
	}
}

// TestVolumeStatsSumToAggregate pins the per-volume/aggregate invariant:
// whatever the placement, the volume breakdown sums to DiskStats.
func TestVolumeStatsSumToAggregate(t *testing.T) {
	a, b := appPair(t, "ccm")
	for _, tc := range shardedCases() {
		t.Run(tc.name, func(t *testing.T) {
			res := simulatePair(t, tc.cfg(), a, b)
			cfg := tc.cfg()
			if len(res.Volumes) != cfg.NumVolumes {
				t.Fatalf("%d volume entries for %d volumes", len(res.Volumes), cfg.NumVolumes)
			}
			var sum VolumeStats
			for _, v := range res.Volumes {
				sum.Reads += v.Reads
				sum.Writes += v.Writes
				sum.ReadBytes += v.ReadBytes
				sum.WriteBytes += v.WriteBytes
				sum.BusySec += v.BusySec
			}
			if sum.Reads != res.Disk.Reads || sum.Writes != res.Disk.Writes ||
				sum.ReadBytes != res.Disk.ReadBytes || sum.WriteBytes != res.Disk.WriteBytes {
				t.Errorf("volume sums %+v != aggregate %+v", sum, res.Disk)
			}
			if diff := sum.BusySec - res.Disk.BusySec; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("volume busy sum %.9f != aggregate %.9f", sum.BusySec, res.Disk.BusySec)
			}
			if imb := res.VolumeImbalance(); imb < 1 || imb > float64(cfg.NumVolumes) {
				t.Errorf("imbalance %.3f outside [1, %d]", imb, cfg.NumVolumes)
			}
		})
	}
}

func TestEventEngineEquivalence(t *testing.T) {
	write := goldenWriteMode(t)
	var goldens map[string]string
	if !write {
		goldens = loadGoldens(t, "equiv.golden")
	}
	// The ccm cases cost ~0.1s each and always run, so CI's -short pass
	// keeps the equivalence net; only the multi-second venus workloads
	// skip in short mode.
	appNames := []string{"ccm"}
	if !testing.Short() {
		appNames = append(appNames, "venus")
	}
	traces := map[string][2][]*trace.Record{}
	for _, name := range appNames {
		a, b := appPair(t, name)
		traces[name] = [2][]*trace.Record{a, b}
	}
	got := map[string]string{}
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			tr, ok := traces[tc.app]
			if !ok {
				t.Skipf("%s workload: skipped in -short mode", tc.app)
			}
			fp := fingerprint(simulatePair(t, tc.cfg(), tr[0], tr[1]))
			if write {
				got[tc.name] = fp
				return
			}
			checkGolden(t, goldens, "equiv.golden", tc.name, fp)
		})
	}
	if write {
		writeGoldens(t, "equiv.golden", got)
	}
}
