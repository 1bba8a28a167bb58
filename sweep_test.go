package iotrace_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"iotrace"
)

func TestGridScenarios(t *testing.T) {
	g := iotrace.Grid{CacheMB: []int64{4, 8}, BlockKB: []int64{4, 8}}
	scens := g.Scenarios()
	if len(scens) != 4 {
		t.Fatalf("%d scenarios, want 4", len(scens))
	}
	// Cache varies fastest within each block size.
	wantNames := []string{
		"cache=4MB block=4KB", "cache=8MB block=4KB",
		"cache=4MB block=8KB", "cache=8MB block=8KB",
	}
	for i, sc := range scens {
		if sc.Name != wantNames[i] {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, wantNames[i])
		}
		if sc.SeedOffset != 0 {
			t.Errorf("scenario %d seed offset %d without SeedStep", i, sc.SeedOffset)
		}
	}
	if scens[0].Config.CacheBytes != 4<<20 || scens[1].Config.CacheBytes != 8<<20 {
		t.Error("cache axis not applied")
	}
	if scens[2].Config.BlockBytes != 8<<10 {
		t.Error("block axis not applied")
	}

	// Unset axes keep the base configuration; empty grid is the base.
	base := iotrace.SSDConfig()
	only := iotrace.Grid{Base: &base}.Scenarios()
	if len(only) != 1 || only[0].Name != "base" || only[0].Config.Tier != iotrace.SSD {
		t.Errorf("empty grid = %+v", only)
	}

	// All five axes multiply, and SeedStep numbers scenarios.
	full := iotrace.Grid{
		CacheMB:     []int64{4, 8},
		BlockKB:     []int64{4},
		Tiers:       []iotrace.Tier{iotrace.MainMemory, iotrace.SSD},
		ReadAhead:   []bool{true, false},
		WriteBehind: []bool{true},
		SeedStep:    3,
	}.Scenarios()
	if len(full) != 8 {
		t.Fatalf("%d scenarios, want 8", len(full))
	}
	if full[7].SeedOffset != 21 {
		t.Errorf("last seed offset %d, want 21", full[7].SeedOffset)
	}
	if !strings.Contains(full[0].Name, "tier=main-memory") || !strings.Contains(full[0].Name, "wb=on") {
		t.Errorf("name %q missing axes", full[0].Name)
	}
}

// TestGridExpansionOrderPinned pins the full expansion of a grid with
// two values on every axis (2^9 = 512 scenarios): the order in which
// axes vary, the label each contributes, the config each cell ends up
// with (SplitSpindles applied after the Volumes axis) and the seed
// numbering. Any rewrite of Grid.Scenarios must reproduce it exactly.
func TestGridExpansionOrderPinned(t *testing.T) {
	plan, err := iotrace.ParseFaultPlan("vol0:down@2s+20s")
	if err != nil {
		t.Fatal(err)
	}
	scens := iotrace.Grid{
		CacheMB:       []int64{4, 8},
		BlockKB:       []int64{4, 8},
		Tiers:         []iotrace.Tier{iotrace.MainMemory, iotrace.SSD},
		ReadAhead:     []bool{true, false},
		WriteBehind:   []bool{false, true},
		Volumes:       []int{1, 2},
		Schedulers:    []iotrace.SchedulerPolicy{iotrace.SchedFCFS, iotrace.SchedSSTF},
		Backbones:     []float64{0, 12.5},
		Faults:        []*iotrace.FaultPlan{nil, plan},
		SplitSpindles: true,
		SeedStep:      3,
	}.Scenarios()
	if len(scens) != 512 {
		t.Fatalf("%d scenarios, want 512", len(scens))
	}

	names := make([]string, len(scens))
	canon := sha256.New()
	for i, sc := range scens {
		names[i] = sc.Name
		canon.Write([]byte(sc.Config.CanonicalString() + "\n"))
	}
	sum := sha256.Sum256([]byte(strings.Join(names, "\n")))
	if got, want := hex.EncodeToString(sum[:]), "81f7981e64b4d051ac8ffe32c91c1e88bbf07e9ea9209f442c52cce67a7e0da3"; got != want {
		t.Errorf("sha256 of scenario names = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(canon.Sum(nil)), "619b0e48b2f333afe3718ba4c9b7e26ba5f1b8d6bf3ea53a525f4de372e6dec8"; got != want {
		t.Errorf("sha256 of canonical configs = %s, want %s", got, want)
	}

	for _, c := range []struct {
		i     int
		name  string
		canon string
	}{
		{0, "cache=4MB block=4KB tier=main-memory ra=on wb=off vols=1 sched=fcfs backbone=off faults=off",
			"cfg1 cache=4194304 block=4096 ra=true wb=false tier=main-memory limit=0 warm=false cpus=1 quantum=1000 switch=3 fscall=10 intr=3 volume={Disk:{TransferBytesPerSec:9.6e+06 MinSeekMs:4 MaxSeekMs:25 HalfRotationMs:8.3 CapacityBytes:1258291200} Stripe:10} ssd={CapacityMW:256 BytesPerMicrosec:1024 SetupMicros:20} vols=1 place=stripe unit=1048576 queue=true sched=fcfs flushrun=256 flushdelay=0 phys=false front=0 ratebin=100000 bb=0 bsched=fifo bperiod=0 burst=0 drain=0 faults=off rtimeout=3000000 rbackoff=100"},
		{37, "cache=8MB block=4KB tier=ssd ra=on wb=off vols=2 sched=fcfs backbone=off faults=off",
			"cfg1 cache=8388608 block=4096 ra=true wb=false tier=ssd limit=0 warm=false cpus=1 quantum=1000 switch=3 fscall=10 intr=3 volume={Disk:{TransferBytesPerSec:9.6e+06 MinSeekMs:4 MaxSeekMs:25 HalfRotationMs:8.3 CapacityBytes:1258291200} Stripe:5} ssd={CapacityMW:256 BytesPerMicrosec:1024 SetupMicros:20} vols=2 place=stripe unit=1048576 queue=true sched=fcfs flushrun=256 flushdelay=0 phys=false front=0 ratebin=100000 bb=0 bsched=fifo bperiod=0 burst=0 drain=0 faults=off rtimeout=3000000 rbackoff=100"},
		{208, "cache=4MB block=4KB tier=main-memory ra=on wb=on vols=1 sched=sstf backbone=12.5MBps faults=off",
			"cfg1 cache=4194304 block=4096 ra=true wb=true tier=main-memory limit=0 warm=false cpus=1 quantum=1000 switch=3 fscall=10 intr=3 volume={Disk:{TransferBytesPerSec:9.6e+06 MinSeekMs:4 MaxSeekMs:25 HalfRotationMs:8.3 CapacityBytes:1258291200} Stripe:10} ssd={CapacityMW:256 BytesPerMicrosec:1024 SetupMicros:20} vols=1 place=stripe unit=1048576 queue=true sched=sstf flushrun=256 flushdelay=0 phys=false front=0 ratebin=100000 bb=12.5 bsched=fifo bperiod=0 burst=0 drain=0 faults=off rtimeout=3000000 rbackoff=100"},
		{300, "cache=4MB block=4KB tier=ssd ra=off wb=off vols=2 sched=fcfs backbone=off faults=vol0:down@2s+20s",
			"cfg1 cache=4194304 block=4096 ra=false wb=false tier=ssd limit=0 warm=false cpus=1 quantum=1000 switch=3 fscall=10 intr=3 volume={Disk:{TransferBytesPerSec:9.6e+06 MinSeekMs:4 MaxSeekMs:25 HalfRotationMs:8.3 CapacityBytes:1258291200} Stripe:5} ssd={CapacityMW:256 BytesPerMicrosec:1024 SetupMicros:20} vols=2 place=stripe unit=1048576 queue=true sched=fcfs flushrun=256 flushdelay=0 phys=false front=0 ratebin=100000 bb=0 bsched=fifo bperiod=0 burst=0 drain=0 faults=vol0:down@2s+20s rtimeout=3000000 rbackoff=100"},
		{511, "cache=8MB block=8KB tier=ssd ra=off wb=on vols=2 sched=sstf backbone=12.5MBps faults=vol0:down@2s+20s",
			"cfg1 cache=8388608 block=8192 ra=false wb=true tier=ssd limit=0 warm=false cpus=1 quantum=1000 switch=3 fscall=10 intr=3 volume={Disk:{TransferBytesPerSec:9.6e+06 MinSeekMs:4 MaxSeekMs:25 HalfRotationMs:8.3 CapacityBytes:1258291200} Stripe:5} ssd={CapacityMW:256 BytesPerMicrosec:1024 SetupMicros:20} vols=2 place=stripe unit=1048576 queue=true sched=sstf flushrun=256 flushdelay=0 phys=false front=0 ratebin=100000 bb=12.5 bsched=fifo bperiod=0 burst=0 drain=0 faults=vol0:down@2s+20s rtimeout=3000000 rbackoff=100"},
	} {
		sc := scens[c.i]
		if sc.Name != c.name {
			t.Errorf("scenario %d named %q, want %q", c.i, sc.Name, c.name)
		}
		if got := sc.Config.CanonicalString(); got != c.canon {
			t.Errorf("scenario %d config\n got %s\nwant %s", c.i, got, c.canon)
		}
	}
	if got, want := scens[511].SeedOffset, uint64(511*3); got != want {
		t.Errorf("last seed offset %d, want %d", got, want)
	}
}

// sweepRender flattens a whole sweep into one byte string for identity
// comparisons, per-volume breakdowns included.
func sweepRender(t *testing.T, results []iotrace.SweepResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
		}
		b.WriteString(r.Scenario.Name)
		b.WriteString(" -> ")
		b.WriteString(renderResult(r.Result))
		fmt.Fprintf(&b, "|vols=%+v|imb=%.9f|queues=%+v|flush=%+v|avail=%.9f deg=%.3f fev=%d",
			r.Result.Volumes, r.Result.VolumeImbalance(), r.Result.VolumeQueues, r.Result.Flush,
			r.Result.Availability, r.Result.DegradedSec, r.Result.FaultEvents)
		b.WriteString("\n")
	}
	return b.String()
}

func TestGridVolumesAxis(t *testing.T) {
	g := iotrace.Grid{CacheMB: []int64{4, 8}, Volumes: []int{1, 4}}
	scens := g.Scenarios()
	if len(scens) != 4 {
		t.Fatalf("%d scenarios, want 4", len(scens))
	}
	// The volume axis varies slowest and labels its scenarios.
	wantNames := []string{
		"cache=4MB vols=1", "cache=8MB vols=1",
		"cache=4MB vols=4", "cache=8MB vols=4",
	}
	for i, sc := range scens {
		if sc.Name != wantNames[i] {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, wantNames[i])
		}
	}
	if scens[1].Config.NumVolumes != 1 || scens[2].Config.NumVolumes != 4 {
		t.Error("volume axis not applied")
	}
}

func TestGridSplitSpindlesPerScenario(t *testing.T) {
	// Grid.SplitSpindles divides the base volume by each cell's OWN
	// volume count, after the Volumes axis — the composition a Base
	// config can't express (its split would use the base count).
	g := iotrace.Grid{Volumes: []int{1, 2, 5}, SplitSpindles: true}
	scens := g.Scenarios()
	wantStripe := []int{10, 5, 2} // DefaultVolume has 10 spindles
	for i, sc := range scens {
		if sc.Config.Volume.Stripe != wantStripe[i] {
			t.Errorf("%s: stripe %d, want %d", sc.Name, sc.Config.Volume.Stripe, wantStripe[i])
		}
	}
	// Without the knob, every cell keeps the full base volume.
	for _, sc := range (iotrace.Grid{Volumes: []int{1, 2, 5}}).Scenarios() {
		if sc.Config.Volume.Stripe != 10 {
			t.Errorf("%s: stripe %d without SplitSpindles", sc.Name, sc.Config.Volume.Stripe)
		}
	}
}

// TestShardedSweepDeterministicAcrossWorkerCounts extends the worker-
// count identity to multi-volume scenarios: a sweep over the volume-count
// axis renders byte-identically whatever the pool width.
func TestShardedSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	base := iotrace.Configure(iotrace.DefaultConfig(), iotrace.Striping(64<<10))
	grid := iotrace.Grid{
		Base:    &base,
		CacheMB: []int64{4, 32},
		Volumes: []int{1, 2, 4, 8},
	}
	scens := grid.Scenarios()
	ctx := context.Background()
	serial, err := w.Sweep(ctx, scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.Sweep(ctx, scens, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sweepRender(t, serial), sweepRender(t, parallel)
	if a != b {
		t.Errorf("workers=4 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	// Each scenario carries the volume breakdown it was configured for.
	for i, r := range serial {
		if len(r.Result.Volumes) != scens[i].Config.NumVolumes {
			t.Errorf("%s: %d volume entries", r.Scenario.Name, len(r.Result.Volumes))
		}
	}
}

func TestGridSchedulersAxis(t *testing.T) {
	grid := iotrace.Grid{
		CacheMB:    []int64{4, 32},
		Schedulers: []iotrace.SchedulerPolicy{iotrace.SchedFCFS, iotrace.SchedSSTF, iotrace.SchedSCAN},
	}
	scens := grid.Scenarios()
	if len(scens) != 6 {
		t.Fatalf("%d scenarios, want 6", len(scens))
	}
	// Scheduler is the slowest-varying axis; every cell enables
	// queueing under its policy.
	want := []struct {
		name string
		pol  iotrace.SchedulerPolicy
	}{
		{"cache=4MB sched=fcfs", iotrace.SchedFCFS},
		{"cache=32MB sched=fcfs", iotrace.SchedFCFS},
		{"cache=4MB sched=sstf", iotrace.SchedSSTF},
		{"cache=32MB sched=sstf", iotrace.SchedSSTF},
		{"cache=4MB sched=scan", iotrace.SchedSCAN},
		{"cache=32MB sched=scan", iotrace.SchedSCAN},
	}
	for i, sc := range scens {
		if sc.Name != want[i].name {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, want[i].name)
		}
		if !sc.Config.DiskQueueing || sc.Config.Scheduler != want[i].pol {
			t.Errorf("%s: queueing=%v scheduler=%v", sc.Name, sc.Config.DiskQueueing, sc.Config.Scheduler)
		}
	}
}

// TestSchedulerSweepDeterministicAcrossWorkerCounts is the
// worker-count-independence property with the Schedulers axis
// populated: per-scenario results — volume breakdowns, queue depths,
// and flush overlap included — are byte-identical however the pool is
// sized.
func TestSchedulerSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	grid := iotrace.Grid{
		CacheMB:    []int64{4, 32},
		Volumes:    []int{1, 2},
		Schedulers: []iotrace.SchedulerPolicy{iotrace.SchedFCFS, iotrace.SchedSSTF, iotrace.SchedSCAN},
	}
	scens := grid.Scenarios()
	ctx := context.Background()
	serial, err := w.Sweep(ctx, scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.Sweep(ctx, scens, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sweepRender(t, serial), sweepRender(t, parallel)
	if a != b {
		t.Errorf("workers=6 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	for i, r := range serial {
		if len(r.Result.VolumeQueues) != scens[i].Config.NumVolumes {
			t.Errorf("%s: %d VolumeQueues entries, want %d",
				r.Scenario.Name, len(r.Result.VolumeQueues), scens[i].Config.NumVolumes)
		}
	}
}

func TestGridFaultsAxis(t *testing.T) {
	plan, err := iotrace.ParseFaultPlan("vol0:down@2s+20s")
	if err != nil {
		t.Fatal(err)
	}
	grid := iotrace.Grid{
		CacheMB: []int64{4, 32},
		Faults:  []*iotrace.FaultPlan{nil, plan},
	}
	scens := grid.Scenarios()
	if len(scens) != 4 {
		t.Fatalf("%d scenarios, want 4", len(scens))
	}
	// The fault axis varies slowest: all faults-off cells come before any
	// faulted cell, and nil labels itself "faults=off".
	want := []struct {
		name string
		plan *iotrace.FaultPlan
	}{
		{"cache=4MB faults=off", nil},
		{"cache=32MB faults=off", nil},
		{"cache=4MB faults=vol0:down@2s+20s", plan},
		{"cache=32MB faults=vol0:down@2s+20s", plan},
	}
	for i, sc := range scens {
		if sc.Name != want[i].name {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, want[i].name)
		}
		if sc.Config.Faults != want[i].plan {
			t.Errorf("%s: Faults = %v, want %v", sc.Name, sc.Config.Faults, want[i].plan)
		}
	}
}

// TestFaultSweepDeterministicAcrossWorkerCounts is the tentpole's
// reproducibility acceptance at the sweep layer: the same seed and the
// same fault plan render byte-identically whatever the worker-pool
// width, resilience counters included.
func TestFaultSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	outage, err := iotrace.ParseFaultPlan("vol0:down@2s+20s,backbone:down@60s+10s")
	if err != nil {
		t.Fatal(err)
	}
	base := iotrace.DefaultConfig()
	base.WriteBehind = false // route writes at the faulted volumes
	grid := iotrace.Grid{
		Base:    &base,
		CacheMB: []int64{4, 32},
		Volumes: []int{1, 2},
		Faults:  []*iotrace.FaultPlan{nil, outage},
	}
	scens := grid.Scenarios()
	ctx := context.Background()
	serial, err := w.Sweep(ctx, scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.Sweep(ctx, scens, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sweepRender(t, serial), sweepRender(t, parallel)
	if a != b {
		t.Errorf("workers=4 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	// Faults-off cells report full availability; faulted cells account
	// for their outage windows.
	for i, r := range serial {
		if scens[i].Config.Faults == nil {
			if r.Result.Availability != 1 || r.Result.FaultEvents != 0 {
				t.Errorf("%s: avail %.3f, %d fault events without a plan",
					r.Scenario.Name, r.Result.Availability, r.Result.FaultEvents)
			}
		} else if r.Result.FaultEvents == 0 || r.Result.DegradedSec <= 0 {
			t.Errorf("%s: %d fault events, degraded %.1f s with a plan",
				r.Scenario.Name, r.Result.FaultEvents, r.Result.DegradedSec)
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance grid: >= 8 configurations.
	grid := iotrace.Grid{
		CacheMB:     []int64{4, 8, 16, 32},
		WriteBehind: []bool{true, false},
	}
	scens := grid.Scenarios()
	if len(scens) < 8 {
		t.Fatalf("grid expanded to %d scenarios, want >= 8", len(scens))
	}
	ctx := context.Background()
	serial, err := w.Sweep(ctx, scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.Sweep(ctx, scens, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sweepRender(t, serial), sweepRender(t, parallel)
	if a != b {
		t.Errorf("workers=4 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	// And the sweep is wired through: more cache can't make idle worse
	// for the write-behind half of the grid.
	if serial[0].Result.IdleSeconds() < serial[3].Result.IdleSeconds() {
		t.Errorf("idle grew with cache size: %v vs %v", serial[0], serial[3])
	}
}

func TestSweepSeedOffsetsVaryTraces(t *testing.T) {
	w, err := iotrace.New(iotrace.App("upw", 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := iotrace.DefaultConfig()
	scens := []iotrace.Scenario{
		{Name: "replica-a", Config: cfg},
		{Name: "replica-b", Config: cfg},
		{Name: "reseeded", Config: cfg, SeedOffset: 1},
	}
	results, err := w.Sweep(context.Background(), scens, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := results[0], results[1], results[2]
	if renderResult(a.Result) != renderResult(b.Result) {
		t.Error("identical scenarios produced different results")
	}
	if renderResult(a.Result) == renderResult(c.Result) {
		t.Error("seed offset did not change the generated trace")
	}
	// Reseeding is itself deterministic.
	again, err := w.Sweep(context.Background(), scens, 3)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(c.Result) != renderResult(again[2].Result) {
		t.Error("seed-offset scenario not reproducible")
	}
}

func TestSweepScenarioErrorIsPerScenario(t *testing.T) {
	w, err := iotrace.New(iotrace.App("upw", 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := iotrace.DefaultConfig()
	bad.BlockBytes = 0 // fails validation
	scens := []iotrace.Scenario{
		{Name: "bad", Config: bad},
		{Name: "good", Config: iotrace.DefaultConfig()},
	}
	results, err := w.Sweep(context.Background(), scens, 2)
	if err != nil {
		t.Fatalf("sweep-level error %v for a scenario-level failure", err)
	}
	if results[0].Err == nil {
		t.Error("invalid config did not fail its scenario")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Errorf("healthy scenario dragged down: %+v", results[1])
	}
	if !strings.Contains(results[0].String(), "error") || !strings.Contains(results[1].String(), "good") {
		t.Errorf("renderings: %q / %q", results[0].String(), results[1].String())
	}
}

func TestSweepCancelled(t *testing.T) {
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scens := iotrace.Grid{CacheMB: []int64{4, 8, 16, 32}}.Scenarios()
	results, err := w.Sweep(ctx, scens, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(scens) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scens))
	}
	for i, r := range results {
		if r.Err == nil && r.Result == nil {
			t.Errorf("scenario %d has neither result nor error", i)
		}
	}
}

func TestSweepEmptyAndOverprovisioned(t *testing.T) {
	w, err := iotrace.New(iotrace.App("upw", 1))
	if err != nil {
		t.Fatal(err)
	}
	none, err := w.Sweep(context.Background(), nil, 4)
	if err != nil || len(none) != 0 {
		t.Fatalf("empty sweep: %v, %d results", err, len(none))
	}
	// More workers than scenarios must not deadlock or misorder.
	one, err := w.Sweep(context.Background(), []iotrace.Scenario{{Name: "solo", Config: iotrace.DefaultConfig()}}, 16)
	if err != nil || len(one) != 1 || one[0].Err != nil {
		t.Fatalf("overprovisioned sweep: %v, %+v", err, one)
	}
}
