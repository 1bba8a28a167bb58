package sim

import (
	"fmt"
	"testing"

	"iotrace/internal/trace"
)

// stepN pops and dispatches up to n events, the steady-state inner loop
// of runEvents without the context plumbing.
func (s *Simulator) stepN(n int) {
	for i := 0; i < n && s.events.len() > 0; i++ {
		e := s.events.pop()
		s.now = e.at
		s.dispatch1(&e)
	}
}

// startAllocHarness primes a simulator with one process per trace to
// the point where RunContext would enter the event loop, without
// running to completion.
func startAllocHarness(t *testing.T, cfg Config, traces ...[]*trace.Record) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range traces {
		if err := s.AddProcess(fmt.Sprint("p", i), recs); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range s.procs {
		p.computeLeft = p.feed.cur.ProcessTime
		s.ready = append(s.ready, p)
	}
	s.dispatch()
	return s
}

// allocConfig pins the rate-series bin width so the whole run lands in
// one bin: the alloc assertions then measure the simulator itself, not
// the amortized growth of the reporting series.
func allocConfig() Config {
	cfg := DefaultConfig()
	cfg.RateBinTicks = 1 << 40
	return cfg
}

// TestReadHitPathZeroAllocs drives the full steady-state loop (doIO →
// hit classification → read-ahead check → advance → next slice) over a
// warm cache and asserts it allocates nothing: no event boxing, no
// per-request key slices, no join maps.
func TestReadHitPathZeroAllocs(t *testing.T) {
	cfg := allocConfig()
	cfg.ReadAhead = false
	const region = 1 << 20
	items := make([]ioItem, 4000)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i%8) * (region / 8), ln: region / 8}
	}
	s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))

	// Warm the cache with the working set so every read hits.
	nBlocks := int64(region) / cfg.BlockBytes
	for i := int64(0); i < nBlocks; i++ {
		if !s.cache.acquire(0, 1) {
			t.Fatal("warm acquire failed")
		}
		s.cache.insert(blockKey{1, i}, 0, false, false, 0)
	}

	s.stepN(500) // reach steady state: heap, scratch, bins at high-water
	hitsBefore := s.cache.stats.ReadHitReqs
	allocs := testing.AllocsPerRun(100, func() { s.stepN(30) })
	if hits := s.cache.stats.ReadHitReqs - hitsBefore; hits == 0 {
		t.Fatal("harness drove no cache-hit reads")
	}
	if s.cache.stats.ReadMissReqs != 0 {
		t.Fatalf("harness missed %d times; hit path not isolated", s.cache.stats.ReadMissReqs)
	}
	if allocs != 0 {
		t.Errorf("cache-hit read path allocates %.1f allocs per 30 events, want 0", allocs)
	}
}

// TestAbsorbedWritePathZeroAllocs asserts the write-behind absorb path —
// classification, dirty marking, flusher write-back, completion — runs
// allocation-free once the working set is resident.
func TestAbsorbedWritePathZeroAllocs(t *testing.T) {
	cfg := allocConfig()
	cfg.ReadAhead = false
	const region = 1 << 20
	items := make([]ioItem, 4000)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i%8) * (region / 8), ln: region / 8, write: true}
	}
	s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))

	s.stepN(2000) // first pass inserts the working set; flusher reaches steady state
	absorbedBefore := s.cache.stats.WriteAbsorbed
	allocs := testing.AllocsPerRun(100, func() { s.stepN(30) })
	if absorbed := s.cache.stats.WriteAbsorbed - absorbedBefore; absorbed == 0 {
		t.Fatal("harness drove no absorbed writes")
	}
	if s.cache.stats.SpaceStalls != 0 {
		t.Fatalf("harness stalled for space; absorb path not isolated")
	}
	if allocs != 0 {
		t.Errorf("absorbed-write path allocates %.1f allocs per 30 events, want 0", allocs)
	}
}

// TestSteadyStateMissPathRecyclesFetches runs a miss-heavy loop long
// enough to cycle the block, fetch, and wait pools and asserts the
// per-miss allocation rate collapses to (amortized) zero — every miss
// reuses recycled structs rather than allocating fresh ones.
func TestSteadyStateMissPathRecyclesFetches(t *testing.T) {
	cfg := allocConfig()
	cfg.ReadAhead = false
	cfg.CacheBytes = 1 << 20 // tiny: every wide-stride read misses
	items := make([]ioItem, 4000)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 21, ln: 1 << 18}
	}
	s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))

	s.stepN(3000) // pools reach their high-water marks
	missBefore := s.cache.stats.ReadMissReqs
	allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
	if misses := s.cache.stats.ReadMissReqs - missBefore; misses == 0 {
		t.Fatal("harness drove no misses")
	}
	if allocs != 0 {
		t.Errorf("steady-state miss path allocates %.1f allocs per 40 events, want 0", allocs)
	}
}

// TestBackboneTransferPathZeroAllocs drives the miss-heavy loop through
// a congested shared backbone under each scheduler and asserts the
// granted-transfer hot path — pooled transfer, enqueue, grant (epoch
// recompute or periodic-window math), completion, recycle — allocates
// nothing in steady state.
func TestBackboneTransferPathZeroAllocs(t *testing.T) {
	for _, sched := range []BackboneSched{BackboneFIFO, BackboneFairShare, BackbonePeriodic} {
		t.Run(sched.String(), func(t *testing.T) {
			cfg := allocConfig()
			cfg.ReadAhead = false
			cfg.CacheBytes = 1 << 20 // tiny: every wide-stride read misses
			cfg.BackboneMBps = 50    // scarce: transfers queue and share
			cfg.BackboneSched = sched
			items := make([]ioItem, 4000)
			for i := range items {
				items[i] = ioItem{file: 1, off: int64(i) << 21, ln: 1 << 18}
			}
			s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))
			s.backbone.setApps(s.procs) // RunContext does this before dispatching

			s.stepN(3000) // transfer pool and heap reach high water
			missBefore := s.cache.stats.ReadMissReqs
			xfersBefore := s.backbone.apps[0].transfers
			allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
			if misses := s.cache.stats.ReadMissReqs - missBefore; misses == 0 {
				t.Fatal("harness drove no misses")
			}
			if s.backbone.apps[0].transfers == xfersBefore {
				t.Fatal("harness drove no backbone transfers")
			}
			if allocs != 0 {
				t.Errorf("backbone transfer path allocates %.1f allocs per 40 events, want 0", allocs)
			}
		})
	}
}

// TestBurstAbsorbPathZeroAllocs repeats the assertion for the burst
// buffer: absorb, pooled drain entry, background drain, volume write.
func TestBurstAbsorbPathZeroAllocs(t *testing.T) {
	cfg := allocConfig()
	cfg.ReadAhead = false
	cfg.WriteBehind = false // synchronous write-through feeds the buffer
	cfg.BackboneMBps = 200
	cfg.BackboneSched = BackboneFIFO
	cfg.BurstBufferMB = 64
	cfg.BurstDrainMBps = 100
	items := make([]ioItem, 4000)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i%64) << 20, ln: 1 << 18, write: true}
	}
	s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))
	s.backbone.setApps(s.procs)

	s.stepN(3000) // drain-entry pool reaches high water
	absorbedBefore := s.burst.absorbed
	allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
	if s.burst.absorbed == absorbedBefore {
		t.Fatal("harness drove no burst absorbs")
	}
	if allocs != 0 {
		t.Errorf("burst absorb path allocates %.1f allocs per 40 events, want 0", allocs)
	}
}

// TestShardedMissPathZeroAllocs repeats the miss-heavy loop on a striped
// 4-volume array: the placement split must serve every request from the
// disk's segment scratch, so sharding adds no steady-state allocations.
func TestShardedMissPathZeroAllocs(t *testing.T) {
	cfg := allocConfig()
	cfg.ReadAhead = false
	cfg.CacheBytes = 1 << 20 // tiny: every wide-stride read misses
	cfg.NumVolumes = 4
	cfg.Placement = PlaceStripe
	cfg.StripeUnitBytes = 64 << 10 // each 256 KB read spans all 4 volumes
	items := make([]ioItem, 4000)
	for i := range items {
		items[i] = ioItem{file: 1, off: int64(i) << 21, ln: 1 << 18}
	}
	s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))

	s.stepN(3000) // pools and the segment scratch reach high water
	missBefore := s.cache.stats.ReadMissReqs
	allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
	if misses := s.cache.stats.ReadMissReqs - missBefore; misses == 0 {
		t.Fatal("harness drove no misses")
	}
	if allocs != 0 {
		t.Errorf("sharded miss path allocates %.1f allocs per 40 events, want 0", allocs)
	}
}

// TestEvictionPathZeroAllocs asserts that finding and evicting the least
// recently used clean block allocates nothing in the two regimes where
// it is hardest: write-behind with a flush delay, where most of a small
// cache is dirty and every eviction must look past the dirty blocks, and
// a per-process limit, where two processes each evict their own blocks.
func TestEvictionPathZeroAllocs(t *testing.T) {
	t.Run("delayed-write", func(t *testing.T) {
		cfg := allocConfig()
		cfg.ReadAhead = false
		cfg.CacheBytes = 1 << 20 // 256 blocks
		cfg.FlushDelayTicks = 30 * trace.TicksPerSecond
		// Alternately a one-block write to every other block of file 1,
		// so that each dirty block is flushed alone when it has aged,
		// and a four-block read of a fresh region of file 2. Thirty
		// seconds of writes keep about 200 of the 256 slots dirty; the
		// reads evict clean blocks past them, and the flusher puts the
		// dirty blocks the search took off back once they are clean.
		items := make([]ioItem, 4000)
		for i := range items {
			if i%2 == 0 {
				items[i] = ioItem{file: 1, off: int64(i) << 12, ln: 1 << 12, write: true, cpuBefore: 0.07}
			} else {
				items[i] = ioItem{file: 2, off: int64(i/2) << 14, ln: 1 << 14, cpuBefore: 0.07}
			}
		}
		s := startAllocHarness(t, cfg, mkTrace(1, items, 0.01))

		s.stepN(12000) // past the first flush delay: cache full, heap at high water
		if d, capBlocks := s.cache.dirtyCount(), s.cache.capacity; 2*d <= capBlocks {
			t.Fatalf("%d of %d slots dirty; want more than half", d, capBlocks)
		}
		missBefore, runsBefore := s.cache.stats.ReadMissReqs, s.flushRuns
		allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
		if s.cache.stats.ReadMissReqs == missBefore {
			t.Fatal("harness drove no misses")
		}
		if s.flushRuns == runsBefore {
			t.Fatal("harness flushed nothing; cleaned blocks never returned")
		}
		if d, capBlocks := s.cache.dirtyCount(), s.cache.capacity; 2*d <= capBlocks {
			t.Fatalf("%d of %d slots dirty after the run; want more than half", d, capBlocks)
		}
		if allocs != 0 {
			t.Errorf("delayed-write eviction path allocates %.1f allocs per 40 events, want 0", allocs)
		}
	})
	t.Run("per-process-limit", func(t *testing.T) {
		cfg := allocConfig()
		cfg.ReadAhead = false
		cfg.CacheBytes = 1 << 20 // 256 blocks
		cfg.PerProcessBlockLimit = 64
		// Two processes reading fresh regions: each fills its 64-block
		// share and then evicts its own blocks, never the global LRU.
		var traces [][]*trace.Record
		for pid := uint32(1); pid <= 2; pid++ {
			items := make([]ioItem, 4000)
			for i := range items {
				items[i] = ioItem{file: pid, off: int64(i) << 14, ln: 1 << 14, cpuBefore: 0.01}
			}
			traces = append(traces, mkTrace(pid, items, 0.01))
		}
		s := startAllocHarness(t, cfg, traces...)

		s.stepN(3000) // both processes at their limit; pools at high water
		for _, pid := range []uint32{1, 2} {
			// Up to one four-block read may be in flight, reserved but
			// not yet owned.
			if n := s.cache.owned[s.cache.ownerIndex(pid)].n; n+4 < cfg.PerProcessBlockLimit {
				t.Fatalf("pid %d owns %d blocks; want its limit %d", pid, n, cfg.PerProcessBlockLimit)
			}
		}
		missBefore := s.cache.stats.ReadMissReqs
		allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
		if s.cache.stats.ReadMissReqs == missBefore {
			t.Fatal("harness drove no misses")
		}
		if s.cache.nResident >= s.cache.capacity {
			t.Fatal("cache filled; evictions were not all per-process")
		}
		if allocs != 0 {
			t.Errorf("per-process eviction path allocates %.1f allocs per 40 events, want 0", allocs)
		}
	})
}
