package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"iotrace/internal/trace"
)

// ioItem is one step of a hand-built test trace.
type ioItem struct {
	file      uint32
	off, ln   int64
	write     bool
	async     bool
	cpuBefore float64     // seconds of compute preceding this I/O
	cpuTicks  trace.Ticks // further compute, in ticks, for exact bursts
}

// mkTrace assembles a single-process trace from items plus trailing
// compute.
func mkTrace(pid uint32, items []ioItem, tailCPU float64) []*trace.Record {
	var recs []*trace.Record
	cpu := trace.Ticks(0)
	for i, it := range items {
		cpu += trace.TicksFromSeconds(it.cpuBefore) + it.cpuTicks
		rt := trace.LogicalRecord
		if it.write {
			rt |= trace.WriteOp
		}
		if it.async {
			rt |= trace.AsyncOp
		}
		recs = append(recs, &trace.Record{
			Type: rt, ProcessID: pid, FileID: it.file,
			OperationID: uint32(i + 1), Offset: it.off, Length: it.ln,
			Start: cpu, Completion: 1, ProcessTime: cpu,
		})
	}
	end := cpu + trace.TicksFromSeconds(tailCPU)
	recs = append(recs, &trace.Record{Type: trace.Comment,
		CommentText: trace.EndComment(end, end)})
	return recs
}

func run(t *testing.T, cfg Config, traces ...[]*trace.Record) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if err := s.AddProcess(string(rune('A'+i)), tr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComputeOnlyProcess(t *testing.T) {
	cfg := DefaultConfig()
	tr := mkTrace(1, []ioItem{{file: 1, off: 0, ln: 4096, cpuBefore: 0}}, 10)
	res := run(t, cfg, tr)
	// One tiny read then 10 s of compute: wall ~ 10 s, utilization ~ 1.
	if res.WallSeconds() < 10 || res.WallSeconds() > 10.2 {
		t.Errorf("wall = %.3f s, want ~10", res.WallSeconds())
	}
	if res.Utilization() < 0.99 {
		t.Errorf("utilization = %.4f, want ~1", res.Utilization())
	}
	if len(res.Procs) != 1 || res.Procs[0].CPUSec < 9.9 {
		t.Errorf("proc result = %+v", res.Procs)
	}
}

func TestSyncReadMissBlocksProcess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadAhead = false
	tr := mkTrace(1, []ioItem{
		{file: 1, off: 0, ln: 1 << 20, cpuBefore: 0.1},
	}, 0.1)
	res := run(t, cfg, tr)
	if res.Procs[0].BlockedSec <= 0 {
		t.Error("sync miss did not block the process")
	}
	if res.Cache.ReadMissReqs != 1 || res.Cache.ReadHitReqs != 0 {
		t.Errorf("cache stats %+v", res.Cache)
	}
	if res.Disk.Reads != 1 {
		t.Errorf("disk reads = %d", res.Disk.Reads)
	}
	// Wall = compute + miss latency; idle equals blocked time.
	if res.IdleSeconds() <= 0 {
		t.Error("no idle time recorded for a solo blocking process")
	}
}

func TestRereadHitsInCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadAhead = false
	tr := mkTrace(1, []ioItem{
		{file: 1, off: 0, ln: 1 << 20, cpuBefore: 0.1},
		{file: 1, off: 0, ln: 1 << 20, cpuBefore: 0.1}, // same data again
	}, 0.1)
	res := run(t, cfg, tr)
	if res.Cache.ReadHitReqs != 1 || res.Cache.ReadMissReqs != 1 {
		t.Errorf("cache stats %+v", res.Cache)
	}
	if res.Disk.Reads != 1 {
		t.Errorf("disk reads = %d, want 1 (second read cached)", res.Disk.Reads)
	}
}

func TestWriteBehindAbsorbsWrites(t *testing.T) {
	cfg := DefaultConfig()
	items := make([]ioItem, 20)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 20, ln: 1 << 20, write: true, cpuBefore: 0.01}
	}
	wb := run(t, cfg, mkTrace(1, items, 0.5))

	cfg2 := cfg
	cfg2.WriteBehind = false
	wt := run(t, cfg2, mkTrace(1, items, 0.5))

	if wb.Cache.WriteAbsorbed != 20 {
		t.Errorf("absorbed = %d, want 20", wb.Cache.WriteAbsorbed)
	}
	if wt.Cache.WriteThrough != 20 {
		t.Errorf("write-through = %d, want 20", wt.Cache.WriteThrough)
	}
	if wb.Procs[0].BlockedSec > 0 {
		t.Errorf("write-behind writer blocked %.3f s", wb.Procs[0].BlockedSec)
	}
	if wt.Procs[0].BlockedSec <= 0 {
		t.Error("write-through writer never blocked")
	}
	if wb.WallSeconds() >= wt.WallSeconds() {
		t.Errorf("write-behind wall %.3f >= write-through wall %.3f",
			wb.WallSeconds(), wt.WallSeconds())
	}
	// All data still reaches disk via the flusher.
	if wb.Disk.WriteBytes != 20<<20 {
		t.Errorf("flusher wrote %d bytes, want %d", wb.Disk.WriteBytes, 20<<20)
	}
}

func TestReadAheadCutsBlocking(t *testing.T) {
	// Sequential reads with enough compute between them for the prefetch
	// to land: read-ahead should eliminate nearly all blocking.
	items := make([]ioItem, 30)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 19, ln: 1 << 19, cpuBefore: 0.05}
	}
	cfg := DefaultConfig()
	cfg.ReadAhead = true
	ra := run(t, cfg, mkTrace(1, items, 0.1))
	cfg.ReadAhead = false
	no := run(t, cfg, mkTrace(1, items, 0.1))
	if ra.Procs[0].BlockedSec >= no.Procs[0].BlockedSec {
		t.Errorf("read-ahead blocked %.4f s, without %.4f s",
			ra.Procs[0].BlockedSec, no.Procs[0].BlockedSec)
	}
	if ra.Cache.PrefetchOps == 0 {
		t.Error("no prefetches issued")
	}
	if ra.Cache.RAHitReqs == 0 {
		t.Error("no read-ahead hits")
	}
}

func TestAsyncProcessNeverBlocks(t *testing.T) {
	items := make([]ioItem, 20)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 20, ln: 1 << 20,
			write: i%2 == 1, async: true, cpuBefore: 0.01}
	}
	cfg := DefaultConfig()
	cfg.ReadAhead = false
	res := run(t, cfg, mkTrace(1, items, 0.2))
	if res.Procs[0].BlockedSec != 0 {
		t.Errorf("async process blocked %.4f s", res.Procs[0].BlockedSec)
	}
	if res.Utilization() < 0.95 {
		t.Errorf("async utilization %.3f", res.Utilization())
	}
}

func TestTwoCPUBoundProcessesShareTheCPU(t *testing.T) {
	cfg := DefaultConfig()
	a := mkTrace(1, []ioItem{{file: 1, off: 0, ln: 4096}}, 5)
	b := mkTrace(2, []ioItem{{file: 2, off: 0, ln: 4096}}, 5)
	res := run(t, cfg, a, b)
	// 10 s of compute on one CPU: wall ~10 s, both finish near the end.
	if res.WallSeconds() < 10 || res.WallSeconds() > 10.5 {
		t.Errorf("wall = %.2f s", res.WallSeconds())
	}
	if res.Utilization() < 0.99 {
		t.Errorf("utilization = %.4f", res.Utilization())
	}
	if res.Switches < 100 {
		t.Errorf("switches = %d, want round-robin interleaving", res.Switches)
	}
	// Round robin: both processes finish within a quantum of each other.
	gap := math.Abs(res.Procs[0].FinishSec - res.Procs[1].FinishSec)
	if gap > 0.1 {
		t.Errorf("finish gap = %.3f s, want interleaved finishes", gap)
	}
}

func TestOneProcessComputesWhileOtherWaits(t *testing.T) {
	// The n+1 rule's mechanism: B's compute fills A's I/O waits.
	mkItems := func(file uint32) []ioItem {
		items := make([]ioItem, 40)
		for i := range items {
			// Far-apart offsets so every read seeks and misses.
			items[i] = ioItem{file: file, off: int64(i) * 64 << 20, ln: 1 << 20, cpuBefore: 0.002}
		}
		return items
	}
	cfg := DefaultConfig()
	cfg.ReadAhead = false
	solo := run(t, cfg, mkTrace(1, mkItems(1), 0.1))
	pair := run(t, cfg, mkTrace(1, mkItems(1), 0.1), mkTrace(2, mkItems(2), 0.1))
	if solo.Utilization() > 0.7 {
		t.Errorf("solo I/O-bound utilization = %.3f, expected low", solo.Utilization())
	}
	if pair.Utilization() < solo.Utilization()*1.3 {
		t.Errorf("pair utilization %.3f did not improve on solo %.3f",
			pair.Utilization(), solo.Utilization())
	}
}

func TestSSDTierHitsDoNotSuspend(t *testing.T) {
	cfg := SSDConfig()
	cfg.WarmCache = true
	// Read-ahead would legitimately prefetch one block past the warmed
	// extent; disable it to isolate hit behavior.
	cfg.ReadAhead = false
	items := make([]ioItem, 50)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i%10) << 20, ln: 1 << 20, cpuBefore: 0.01}
	}
	res := run(t, cfg, mkTrace(1, items, 0.1))
	if res.Procs[0].BlockedSec != 0 {
		t.Errorf("SSD hits blocked the process %.4f s", res.Procs[0].BlockedSec)
	}
	if res.Cache.ReadHitReqs != 50 {
		t.Errorf("hits = %d, want 50 (warm cache)", res.Cache.ReadHitReqs)
	}
	if res.Disk.Reads != 0 {
		t.Errorf("disk reads = %d, want 0", res.Disk.Reads)
	}
	// SSD hit costs are charged as busy CPU, so utilization stays high.
	if res.Utilization() < 0.99 {
		t.Errorf("utilization = %.4f", res.Utilization())
	}
}

func TestSSDHitsCostMoreThanMemoryHits(t *testing.T) {
	items := make([]ioItem, 40)
	for i := range items {
		items[i] = ioItem{file: 1, off: 0, ln: 4 << 20, cpuBefore: 0.001}
	}
	mem := DefaultConfig()
	mem.WarmCache = true
	memRes := run(t, mem, mkTrace(1, items, 0.01))
	ssd := SSDConfig()
	ssd.WarmCache = true
	ssdRes := run(t, ssd, mkTrace(1, items, 0.01))
	if ssdRes.WallSeconds() <= memRes.WallSeconds() {
		t.Errorf("SSD wall %.4f should exceed memory wall %.4f (channel cost)",
			ssdRes.WallSeconds(), memRes.WallSeconds())
	}
}

func TestSmallCacheForcesSpaceStalls(t *testing.T) {
	// A burst of writes far larger than the cache: write-behind must
	// stall for the flusher.
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20 // 1 MB cache
	items := make([]ioItem, 64)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 19, ln: 1 << 19, write: true, cpuBefore: 0.0001}
	}
	res := run(t, cfg, mkTrace(1, items, 0.1))
	if res.Cache.SpaceStalls == 0 {
		t.Error("no space stalls despite cache pressure")
	}
	if res.Disk.WriteBytes != 64<<19 {
		t.Errorf("disk writes %d bytes, want %d", res.Disk.WriteBytes, 64<<19)
	}
}

func TestPerProcessLimitCausesBypassOrStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerProcessBlockLimit = 64 // 256 KB at 4 KB blocks
	items := make([]ioItem, 16)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 20, ln: 1 << 20, write: true, cpuBefore: 0.001}
	}
	res := run(t, cfg, mkTrace(1, items, 0.1))
	// 1 MB writes exceed the 256 KB ownership cap: they bypass the cache
	// and go synchronously to disk.
	if res.Cache.Bypasses == 0 {
		t.Error("over-limit writes did not bypass")
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := DefaultConfig()
	items := make([]ioItem, 30)
	for i := range items {
		items[i] = ioItem{file: uint32(1 + i%3), off: int64(i) << 18, ln: 1 << 18,
			write: i%2 == 0, cpuBefore: 0.003}
	}
	r1 := run(t, cfg, mkTrace(1, items, 0.2), mkTrace(2, items, 0.2))
	r2 := run(t, cfg, mkTrace(1, items, 0.2), mkTrace(2, items, 0.2))
	if r1.WallTicks != r2.WallTicks || r1.BusyTicks != r2.BusyTicks ||
		r1.Switches != r2.Switches || r1.Cache != r2.Cache {
		t.Errorf("nondeterministic results:\n%v\n%v", r1, r2)
	}
}

func TestAddProcessErrors(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddProcess("empty", nil); err == nil {
		t.Error("empty trace accepted")
	}
	good := mkTrace(1, []ioItem{{file: 1, ln: 4096}}, 1)
	if err := s.AddProcess("a", good); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProcess("dup", mkTrace(1, []ioItem{{file: 1, ln: 4096}}, 1)); err == nil {
		t.Error("duplicate pid accepted")
	}
	mixed := mkTrace(2, []ioItem{{file: 1, ln: 4096}}, 1)
	mixed[0].ProcessID = 3
	mixed = append(mixed, &trace.Record{Type: trace.LogicalRecord, ProcessID: 4, FileID: 1, Length: 1})
	if err := s.AddProcess("mixed", mixed); err == nil {
		t.Error("mixed-pid trace accepted")
	}
	bad := mkTrace(5, []ioItem{{file: 1, ln: 4096, cpuBefore: 1}, {file: 1, ln: 4096}}, 1)
	bad[1].ProcessTime = 0 // non-monotone
	if err := s.AddProcess("bad", bad); err == nil {
		t.Error("non-monotone trace accepted")
	}
	neg := mkTrace(6, []ioItem{{file: 1, off: -4096, ln: 4096}}, 1)
	if err := s.AddProcess("neg", neg); err == nil {
		t.Error("negative-offset trace accepted")
	}
	huge := mkTrace(7, []ioItem{{file: 1, off: 1 << 62, ln: 1 << 62}}, 1)
	if err := s.AddProcess("huge", huge); err == nil {
		t.Error("offset+length overflow accepted")
	}
}

func TestRetryWriteBypassesWhenItCanNoLongerFit(t *testing.T) {
	// A space-stalled write whose re-classified block count has grown
	// past cache capacity must write through (like doWrite's permanently
	// unservable branch), not stall the waiter FIFO forever.
	cfg := DefaultConfig()
	cfg.CacheBytes = 4 * cfg.BlockBytes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 6-block write against a 4-block cache: nothing resident, so the
	// retry re-classifies all 6 blocks as needing slots.
	tr := mkTrace(1, []ioItem{{file: 1, off: 0, ln: 6 * cfg.BlockBytes, write: true}}, 1)
	if err := s.AddProcess("w", tr); err != nil {
		t.Fatal(err)
	}
	p := s.procs[0]
	r := p.feed.cur
	p.blocked = true
	if ok := s.retryWrite(p, r); !ok {
		t.Fatal("unservable retry reported transient failure (permanent stall)")
	}
	if s.cache.stats.Bypasses != 1 {
		t.Errorf("Bypasses = %d, want 1", s.cache.stats.Bypasses)
	}
	// The next event is the bypass write's completion, which wakes the
	// writer (the harness leaves the feed on the same record, so further
	// events would legitimately re-block it).
	s.stepN(1)
	if p.blocked {
		t.Error("writer still blocked after bypass completion")
	}
}

func TestRunWithoutProcesses(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("Run without processes succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.CacheBytes = 100 },
		func(c *Config) { c.QuantumTicks = 0 },
		func(c *Config) { c.SwitchTicks = -1 },
		func(c *Config) { c.Volume.Stripe = 0 },
		func(c *Config) { c.MaxFlushRunBlocks = 0 },
		func(c *Config) { c.RateBinTicks = 0 },
		func(c *Config) { c.PerProcessBlockLimit = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if MainMemory.String() != "main-memory" || SSD.String() != "ssd" {
		t.Error("tier names wrong")
	}
}

func TestResultString(t *testing.T) {
	cfg := DefaultConfig()
	res := run(t, cfg, mkTrace(1, []ioItem{{file: 1, ln: 4096}}, 1))
	if res.String() == "" {
		t.Error("empty result string")
	}
}

func TestDemandRateRecorded(t *testing.T) {
	cfg := DefaultConfig()
	items := []ioItem{
		{file: 1, off: 0, ln: 10 << 20, cpuBefore: 0.1},
		{file: 1, off: 10 << 20, ln: 10 << 20, write: true, cpuBefore: 0.1},
	}
	res := run(t, cfg, mkTrace(1, items, 0.1))
	if res.DemandRate.Total() != float64(20<<20) {
		t.Errorf("demand total = %v", res.DemandRate.Total())
	}
	if res.DiskReadRate.Total() <= 0 {
		t.Error("no disk read traffic recorded")
	}
}

// quantumRun is one run's outcome and the number of events it posted.
type quantumRun struct {
	res    *Result
	err    error
	events uint64
}

// runQuanta runs the traces with the single-CPU quantum skip or, with
// perQuantum, one quantum at a time.
func runQuanta(t testing.TB, cfg Config, traces [][]*trace.Record, perQuantum bool) quantumRun {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.perQuantum = perQuantum
	for i, tr := range traces {
		if err := s.AddProcess(fmt.Sprint("p", i), tr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	return quantumRun{res, err, s.seq}
}

// requireSameResult fails unless the skipping run reproduced the
// per-quantum run exactly.
func requireSameResult(t testing.TB, skip, ref quantumRun) {
	t.Helper()
	if fmt.Sprint(skip.err) != fmt.Sprint(ref.err) {
		t.Fatalf("skip run error %v, per-quantum run error %v", skip.err, ref.err)
	}
	if reflect.DeepEqual(skip.res, ref.res) {
		return
	}
	if skip.res == nil || ref.res == nil {
		t.Fatalf("skip run result %v, per-quantum run result %v", skip.res, ref.res)
	}
	a, b := skip.res, ref.res
	t.Fatalf("skip run differs from the per-quantum run:\n skip: wall %d busy %d switches %d procs %+v\n  ref: wall %d busy %d switches %d procs %+v",
		a.WallTicks, a.BusyTicks, a.Switches, a.Procs, b.WallTicks, b.BusyTicks, b.Switches, b.Procs)
}

// burstTrace is a trace of n exact compute bursts, each ended by a 4 KB
// request to the process's own file.
func burstTrace(pid uint32, n int, burst trace.Ticks, write bool) []*trace.Record {
	items := make([]ioItem, n)
	for i := range items {
		items[i] = ioItem{file: pid, off: int64(i) << 16, ln: 4 << 10, write: write, cpuTicks: burst}
	}
	return mkTrace(pid, items, 0)
}

// boundedBursts is three processes of 20 bursts of the given length and
// one process of longer bursts of 40 quanta and a few ticks.
func boundedBursts(burst trace.Ticks) [][]*trace.Record {
	const q = 50
	return [][]*trace.Record{
		burstTrace(1, 20, burst, false), burstTrace(2, 20, burst, true), burstTrace(3, 20, burst, false),
		burstTrace(4, 20, 40*q+7, true),
	}
}

// TestQuantumSkipBoundaries holds the skip against the per-quantum path
// where its two bounds bind: a slice end on the tick of a pending event,
// and bursts that end exactly on, one past, or two quanta past a
// quantum boundary.
func TestQuantumSkipBoundaries(t *testing.T) {
	const q = 50
	withQ := func(quantum, sw trace.Ticks) Config {
		cfg := DefaultConfig()
		cfg.QuantumTicks = quantum
		cfg.SwitchTicks = sw
		cfg.WriteBehind = false
		return cfg
	}
	cases := []struct {
		name   string
		cfg    Config
		traces [][]*trace.Record
		skips  bool // the skip must post fewer events
	}{
		// With a 1-tick quantum and free switches a slice ends on every
		// tick, so every disk completion lands on a slice end, which
		// must fire after the completion posted before it.
		{"completion on a slice end", withQ(1, 0), [][]*trace.Record{
			burstTrace(1, 6, 300, false),
			burstTrace(2, 2, 5000, true),
			burstTrace(3, 3, 4000, false),
		}, true},
		// Three processes whose bursts leave Q, Q+1 or 2Q ticks beside
		// one CPU-bound process, whose expiries call the skip while the
		// others wait in the queue. A process with exactly Q left bounds
		// K at its position; one with Q+1 or 2Q allows one more round.
		{"bursts of Q", withQ(q, 3), boundedBursts(q), true},
		{"bursts of Q+1", withQ(q, 3), boundedBursts(q + 1), true},
		{"bursts of 2Q", withQ(q, 3), boundedBursts(2 * q), true},
		// M = 1: a lone CPU-bound process with nothing pending skips to
		// its last quantum in one step.
		{"lone CPU-bound process", withQ(1000, 3), [][]*trace.Record{
			mkTrace(1, []ioItem{{file: 1, ln: 4 << 10, cpuBefore: 30}}, 30),
		}, true},
		{"free switches", withQ(q, 0), [][]*trace.Record{
			burstTrace(1, 10, 7*q+3, false), burstTrace(2, 10, 5*q, true),
			burstTrace(3, 10, 3*q+1, false), burstTrace(4, 10, 11*q, true),
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skip, ref := runQuanta(t, tc.cfg, tc.traces, false), runQuanta(t, tc.cfg, tc.traces, true)
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			requireSameResult(t, skip, ref)
			if tc.skips && skip.events >= ref.events {
				t.Errorf("skip run posted %d events, per-quantum run %d: nothing skipped", skip.events, ref.events)
			}
			if !tc.skips && skip.events != ref.events {
				t.Errorf("skip run posted %d events, per-quantum run %d: want no skip", skip.events, ref.events)
			}
		})
	}
}

// FuzzQuantumSkipMatchesPerQuantum requires the single-CPU quantum skip
// to give the Result of the per-quantum path, Physical records, rate
// series and per-process results included. The input's first bytes pick
// the process count (1-8), the quantum (1-50 ticks), the switch cost
// (0-3 ticks) and a flag byte: CPUs (1, 2 or 4), write-behind, 4
// volumes, the backbone, a fault plan, disk queueing and read-ahead.
// A fault plan reads three more bytes. Each following group of four
// bytes adds a compute burst (up to ~4000 ticks) and a 4-64 KB request
// to one process.
func FuzzQuantumSkipMatchesPerQuantum(f *testing.F) {
	// Two processes at Q=1; five at Q=50 with free switches; a volume
	// outage past the retry timeout, so processes restart; 2 and 4
	// CPUs with the backbone and disk queueing; a lone process.
	f.Add([]byte{2, 0, 3, 0, 1, 200, 3, 1, 2, 90, 10, 4})
	f.Add([]byte{5, 49, 0, 0, 0, 255, 7, 9, 1, 128, 15, 2, 4, 60, 3, 6})
	f.Add([]byte{3, 9, 2, 40, 0, 10, 200, 0, 250, 9, 1, 6, 100, 15, 3, 7, 2, 220, 3, 12, 1, 99, 7, 3})
	f.Add([]byte{3, 9, 2, 40, 0, 10, 200, 0, 250, 9, 0, 6, 100, 15, 4, 7, 2, 220, 3, 12, 1, 99, 7, 2})
	f.Add([]byte{3, 19, 1, 0x52, 9, 220, 14, 0, 8, 170, 12, 3, 2, 240, 6, 5})
	f.Add([]byte{6, 7, 1, 0x57, 9, 220, 14, 0, 8, 170, 12, 3, 2, 240, 6, 5, 4, 33, 9, 3})
	f.Add([]byte{0, 4, 1, 0, 255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0])
			in = in[1:]
			return v
		}
		nProcs := 1 + next()%8
		cfg := DefaultConfig()
		cfg.RecordPhysical = true
		cfg.RateBinTicks = trace.TicksPerSecond / 100
		cfg.QuantumTicks = trace.Ticks(1 + next()%50)
		cfg.SwitchTicks = trace.Ticks(next() % 4)
		flags := next()
		cfg.NumCPUs = []int{1, 1, 2, 4}[flags&3]
		cfg.WriteBehind = flags&4 != 0
		if flags&8 != 0 {
			cfg.NumVolumes = 4
			cfg.StripeUnitBytes = 16 << 10
		}
		if flags&16 != 0 {
			cfg.BackboneMBps = 20
			cfg.BackboneSched = BackboneSched(flags % 3)
			cfg.BackbonePeriodTicks = 5000
		}
		if flags&32 != 0 {
			// Outages shorter and longer than the retry timeout, so
			// blocked processes restart mid-rotation.
			ev := FaultEvent{
				Kind: FaultKind(next() % 3), Vol: flags >> 6,
				At: trace.Ticks(next()) * 64, Dur: trace.Ticks(1+next()) * 64, Factor: 3,
			}
			cfg.Faults = &FaultPlan{Events: []FaultEvent{ev}}
			cfg.RetryTimeoutTicks = 2000
			cfg.RetryBackoffTicks = 100
		}
		cfg.DiskQueueing = flags&64 != 0
		cfg.ReadAhead = flags&128 != 0
		items := make([][]ioItem, nProcs)
		for p := range items {
			items[p] = []ioItem{{file: uint32(p + 1), ln: 4 << 10}}
		}
		for n := 0; len(in) > 0 && n < 48; n++ {
			p := next() % nProcs
			burst := trace.Ticks(next()) * trace.Ticks(1+next()%16)
			op := next()
			items[p] = append(items[p], ioItem{
				file: uint32(1 + op%3), off: int64(op>>2) << 14, ln: int64(1+op%16) << 12,
				write: op&1 != 0, cpuTicks: burst,
			})
		}
		traces := make([][]*trace.Record, nProcs)
		for p := range traces {
			traces[p] = mkTrace(uint32(p+1), items[p], 0.01)
		}
		requireSameResult(t, runQuanta(t, cfg, traces, false), runQuanta(t, cfg, traces, true))
	})
}
