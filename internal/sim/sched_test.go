package sim

import (
	"testing"

	"iotrace/internal/trace"
)

// schedConfig returns a queueing configuration under the given policy.
func schedConfig(pol Scheduler) Config {
	cfg := DefaultConfig()
	cfg.DiskQueueing = true
	cfg.Scheduler = pol
	cfg.RecordPhysical = true
	return cfg
}

// drainEvents pops and dispatches every queued event.
func drainEvents(s *Simulator) {
	for s.events.len() > 0 {
		e := s.events.pop()
		s.now = e.at
		s.dispatch1(&e)
	}
}

// physOffsets returns the block-number offsets of the recorded physical
// trace — under RecordPhysical, the service order of the dispatched
// requests.
func physOffsets(s *Simulator) []int64 {
	var out []int64
	for _, r := range s.physical {
		out = append(out, r.Offset)
	}
	return out
}

func TestParseScheduler(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheduler
	}{
		{"fcfs", SchedFCFS}, {"sstf", SchedSSTF}, {"scan", SchedSCAN}, {"elevator", SchedSCAN},
		{"aged-sstf", SchedAgedSSTF}, {"asstf", SchedAgedSSTF},
	} {
		got, err := ParseScheduler(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseScheduler(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "elevator" && tc.in != "asstf" && got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseScheduler("lifo"); err == nil {
		t.Error("ParseScheduler accepted an unknown policy")
	}
}

func TestConfigValidateScheduler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = Scheduler(7)
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an unknown scheduler")
	}
	for _, pol := range []Scheduler{SchedFCFS, SchedSSTF, SchedSCAN, SchedAgedSSTF} {
		cfg.Scheduler = pol
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %v: %v", pol, err)
		}
	}
}

// TestSSTFServicesNearestFirst pins the SSTF dispatch order: while the
// volume services one request, a near and a far request queue up; the
// near one is serviced next even though the far one arrived first.
func TestSSTFServicesNearestFirst(t *testing.T) {
	s, err := New(schedConfig(SchedSSTF))
	if err != nil {
		t.Fatal(err)
	}
	const mb = 1 << 20
	s.diskAccess(1, 0, 2*mb, false, event{kind: evNop})      // in service; head ends at base+2MB
	s.diskAccess(1, 200*mb, 1*mb, false, event{kind: evNop}) // far (arrived first)
	s.diskAccess(1, 3*mb, 1*mb, false, event{kind: evNop})   // near
	drainEvents(s)

	got := physOffsets(s)
	want := []int64{0, 3 * mb, 200 * mb} // volume-relative: base cancels in ordering
	if len(got) != 3 {
		t.Fatalf("%d physical records, want 3", len(got))
	}
	base := got[0]
	for i, w := range want {
		if rel := (got[i] - base) * trace.BlockSize; rel != w {
			t.Errorf("service %d at volume offset %d, want %d (SSTF order)", i, rel, w)
		}
	}
}

// TestSCANElevatorOrder pins the elevator: the head finishes its
// ascending sweep (servicing queued requests in position order) before
// reversing for the ones behind it — even when one of those is closer
// than the next ascending stop (where SSTF would turn around early).
func TestSCANElevatorOrder(t *testing.T) {
	s, err := New(schedConfig(SchedSCAN))
	if err != nil {
		t.Fatal(err)
	}
	const mb = 1 << 20
	s.diskAccess(1, 0, 2*mb, false, event{kind: evNop})     // in service; head ends at +2MB
	s.diskAccess(1, 10*mb, 1*mb, false, event{kind: evNop}) // ahead, far
	s.diskAccess(1, 1*mb, 1*mb, false, event{kind: evNop})  // behind the head (closest!)
	s.diskAccess(1, 4*mb, 1*mb, false, event{kind: evNop})  // ahead, near
	drainEvents(s)

	got := physOffsets(s)
	// Ascending: 4MB then 10MB; then reverse for the 1MB stop.
	want := []int64{0, 4 * mb, 10 * mb, 1 * mb}
	if len(got) != len(want) {
		t.Fatalf("%d physical records, want %d", len(got), len(want))
	}
	base := got[0]
	for i, w := range want {
		if rel := (got[i] - base) * trace.BlockSize; rel != w {
			t.Errorf("service %d at volume offset %d, want %d (elevator order)", i, rel, w)
		}
	}

	// Contrast: SSTF on the same arrivals turns around for the 1MB stop
	// first (distance 1MB < 2MB).
	s2, err := New(schedConfig(SchedSSTF))
	if err != nil {
		t.Fatal(err)
	}
	s2.diskAccess(1, 0, 2*mb, false, event{kind: evNop})
	s2.diskAccess(1, 10*mb, 1*mb, false, event{kind: evNop})
	s2.diskAccess(1, 1*mb, 1*mb, false, event{kind: evNop})
	s2.diskAccess(1, 4*mb, 1*mb, false, event{kind: evNop})
	drainEvents(s2)
	sstf := physOffsets(s2)
	if rel := (sstf[1] - sstf[0]) * trace.BlockSize; rel != 1*mb {
		t.Errorf("SSTF second service at %d, want the 1MB stop — the policies should diverge here", rel)
	}
}

// TestAgedSSTFBoundsStarvation pins the aging policy's point: a distant
// request that has waited long enough outranks a fresh head-adjacent
// arrival — where plain SSTF, given the same arrivals, services the
// near one first and leaves the far one parked.
func TestAgedSSTFBoundsStarvation(t *testing.T) {
	const mb = 1 << 20
	issue := func(pol Scheduler) *Simulator {
		s, err := New(schedConfig(pol))
		if err != nil {
			t.Fatal(err)
		}
		// A long transfer holds the head busy while the queue builds; the
		// head parks at its end, 64 MB.
		s.diskAccess(1, 0, 64*mb, false, event{kind: evNop})
		s.diskAccess(1, 200*mb, mb, false, event{kind: evNop}) // far, old
		// Half a second into the service, a near request arrives. By the
		// dispatch decision the far request has aged 0.5 s more — 32 KiB
		// per tick * 50k ticks of credit, far more than the ~134 MB seek
		// difference.
		s.now = trace.TicksPerSecond / 2
		s.diskAccess(1, 66*mb, mb, false, event{kind: evNop}) // near, fresh
		v := &s.disk.vols[0]
		if !v.inService || v.curDone <= s.now {
			t.Fatalf("fixture: first service ended at %v, before the near arrival at %v", v.curDone, s.now)
		}
		drainEvents(s)
		return s
	}

	aged := physOffsets(issue(SchedAgedSSTF))
	if len(aged) != 3 {
		t.Fatalf("%d physical records, want 3", len(aged))
	}
	base := aged[0]
	if rel := (aged[1] - base) * trace.BlockSize; rel != 200*mb {
		t.Errorf("aged-sstf serviced offset %d second, want the aged far request at %d", rel, 200*mb)
	}

	sstf := physOffsets(issue(SchedSSTF))
	if rel := (sstf[1] - sstf[0]) * trace.BlockSize; rel != 66*mb {
		t.Errorf("sstf serviced offset %d second, want the near request at %d — the policies should diverge here", rel, 66*mb)
	}
}

// TestAgedSSTFFreshQueueMatchesSSTF pins the degenerate case: when every
// pending request arrived at the same instant there is no age credit to
// differentiate them, and aged-SSTF picks exactly SSTF's nearest-first
// order.
func TestAgedSSTFFreshQueueMatchesSSTF(t *testing.T) {
	const mb = 1 << 20
	run := func(pol Scheduler) []int64 {
		s, err := New(schedConfig(pol))
		if err != nil {
			t.Fatal(err)
		}
		s.diskAccess(1, 0, 2*mb, false, event{kind: evNop})
		s.diskAccess(1, 200*mb, mb, false, event{kind: evNop})
		s.diskAccess(1, 3*mb, mb, false, event{kind: evNop})
		drainEvents(s)
		return physOffsets(s)
	}
	aged, sstf := run(SchedAgedSSTF), run(SchedSSTF)
	if len(aged) != len(sstf) {
		t.Fatalf("%d vs %d physical records", len(aged), len(sstf))
	}
	for i := range aged {
		if aged[i] != sstf[i] {
			t.Errorf("service %d: aged-sstf at %d, sstf at %d — co-arrived queues should match", i, aged[i], sstf[i])
		}
	}
}

// TestSchedulerQueueDepthStats pins the per-volume queue accounting: a
// burst of n requests on one busy volume reaches depth n, with n-1
// waits, under every policy (FCFS tracks the same stats through its
// closed-form ring).
func TestSchedulerQueueDepthStats(t *testing.T) {
	const n = 5
	for _, pol := range []Scheduler{SchedFCFS, SchedSSTF, SchedSCAN, SchedAgedSSTF} {
		t.Run(pol.String(), func(t *testing.T) {
			s, err := New(schedConfig(pol))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				s.diskAccess(1, int64(i)<<20, 1<<20, false, event{kind: evNop})
			}
			drainEvents(s)
			v := &s.disk.vols[0]
			if v.maxQueueDepth != n {
				t.Errorf("max queue depth %d, want %d", v.maxQueueDepth, n)
			}
			if v.queueWaits != n-1 {
				t.Errorf("waits %d, want %d", v.queueWaits, n-1)
			}
			if v.queueWaitTicks <= 0 {
				t.Error("no wait time accumulated")
			}
		})
	}
}

// TestVolumeQueuesReporting pins the Result surface: queue stats are
// per-volume when queueing is on and absent when it is off.
func TestVolumeQueuesReporting(t *testing.T) {
	items := make([]ioItem, 64)
	for i := range items {
		items[i] = ioItem{file: uint32(1 + i%3), off: int64(i) << 20, ln: 1 << 20, write: i%2 == 0, cpuBefore: 0.001}
	}
	tr := mkTrace(1, items, 0.1)

	cfg := DefaultConfig()
	cfg.NumVolumes = 2
	cfg.DiskQueueing = true
	cfg.Scheduler = SchedSSTF
	res := run(t, cfg, tr)
	if len(res.VolumeQueues) != 2 {
		t.Fatalf("%d VolumeQueues entries, want 2", len(res.VolumeQueues))
	}

	cfg.DiskQueueing = false
	if res := run(t, cfg, tr); res.VolumeQueues != nil {
		t.Errorf("VolumeQueues = %+v without queueing, want nil", res.VolumeQueues)
	}
}

// TestSchedulerAttributionSums is the scheduler invariant property
// test: under every scheduler x placement x volume-count combination,
// the per-volume stats sum to the aggregate DiskStats, seek + transfer
// attribution re-adds to each volume's busy time (within per-access
// tick rounding), and the imbalance metric stays in range.
func TestSchedulerAttributionSums(t *testing.T) {
	// A seek-heavy two-process mix: interleaved strided reads and
	// writes across several files, so every policy has real choices.
	mkItems := func(seed int64) []ioItem {
		items := make([]ioItem, 120)
		for i := range items {
			items[i] = ioItem{
				file:      uint32(1 + (i+int(seed))%4),
				off:       (int64(i*37+int(seed)) % 64) << 20,
				ln:        256 << 10,
				write:     i%3 == 0,
				cpuBefore: 0.0005,
			}
		}
		return items
	}
	trA := mkTrace(1, mkItems(0), 0.05)
	trB := mkTrace(2, mkItems(11), 0.05)

	for _, pol := range []Scheduler{SchedFCFS, SchedSSTF, SchedSCAN, SchedAgedSSTF} {
		for _, placement := range []Placement{PlaceStripe, PlaceFileHash} {
			for _, vols := range []int{1, 3} {
				name := pol.String() + "/" + placement.String() + "/" + string(rune('0'+vols)) + "vol"
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.DiskQueueing = true
					cfg.Scheduler = pol
					cfg.NumVolumes = vols
					cfg.Placement = placement
					cfg.StripeUnitBytes = 256 << 10
					cfg.CacheBytes = 4 << 20 // small: plenty of disk traffic
					res := run(t, cfg, trA, trB)

					var sum VolumeStats
					var accesses int64
					for _, v := range res.Volumes {
						sum.Reads += v.Reads
						sum.Writes += v.Writes
						sum.ReadBytes += v.ReadBytes
						sum.WriteBytes += v.WriteBytes
						sum.BusySec += v.BusySec
						accesses += v.Reads + v.Writes
						// Attribution: seek + transfer re-adds to busy within
						// one tick of rounding per component per access.
						bound := float64(v.Reads+v.Writes+1) * 2e-5
						if diff := v.SeekSec + v.TransferSec - v.BusySec; diff > bound || diff < -bound {
							t.Errorf("seek %.6f + transfer %.6f != busy %.6f (bound %.6f)",
								v.SeekSec, v.TransferSec, v.BusySec, bound)
						}
					}
					if accesses == 0 {
						t.Fatal("workload drove no disk accesses")
					}
					if sum.Reads != res.Disk.Reads || sum.Writes != res.Disk.Writes ||
						sum.ReadBytes != res.Disk.ReadBytes || sum.WriteBytes != res.Disk.WriteBytes {
						t.Errorf("volume sums %+v != aggregate %+v", sum, res.Disk)
					}
					if diff := sum.BusySec - res.Disk.BusySec; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("volume busy sum %.9f != aggregate %.9f", sum.BusySec, res.Disk.BusySec)
					}
					if len(res.VolumeQueues) != vols {
						t.Fatalf("%d VolumeQueues for %d volumes", len(res.VolumeQueues), vols)
					}
					for i, q := range res.VolumeQueues {
						if q.MaxDepth == 0 && (res.Volumes[i].Reads+res.Volumes[i].Writes) > 0 {
							t.Errorf("volume %d serviced requests at depth 0", i)
						}
						if q.WaitSec < 0 {
							t.Errorf("volume %d negative wait", i)
						}
					}
					if imb := res.VolumeImbalance(); imb < 1 || imb > float64(vols) {
						t.Errorf("imbalance %.3f outside [1, %d]", imb, vols)
					}
				})
			}
		}
	}
}

// TestScheduledDispatchZeroAllocs repeats the miss-heavy steady-state
// loop with queueing on under each policy, on a striped 4-volume array:
// the whole dispatch path — queue append, policy pick, diskReq join,
// FCFS depth ring — must run allocation-free once pools reach their
// high-water marks. The deep cases run 40 processes at once, so the
// linear pick is measured over queues 32 or more segments deep.
func TestScheduledDispatchZeroAllocs(t *testing.T) {
	cfgFor := func(pol Scheduler) Config {
		cfg := allocConfig()
		cfg.ReadAhead = false
		cfg.CacheBytes = 1 << 20 // tiny: every wide-stride read misses
		cfg.NumVolumes = 4
		cfg.Placement = PlaceStripe
		cfg.StripeUnitBytes = 64 << 10 // each 256 KB read spans all 4 volumes
		cfg.DiskQueueing = true
		cfg.Scheduler = pol
		return cfg
	}
	stridedTrace := func(pid uint32, n int, writes bool) []*trace.Record {
		items := make([]ioItem, n)
		for i := range items {
			items[i] = ioItem{file: pid, off: int64(i) << 21, ln: 1 << 18, write: writes && i%4 == 0}
		}
		return mkTrace(pid, items, 0.01)
	}
	measure := func(t *testing.T, s *Simulator, pol Scheduler) {
		t.Helper()
		missBefore := s.cache.stats.ReadMissReqs
		allocs := testing.AllocsPerRun(50, func() { s.stepN(40) })
		if misses := s.cache.stats.ReadMissReqs - missBefore; misses == 0 {
			t.Fatal("harness drove no misses")
		}
		if allocs != 0 {
			t.Errorf("%v dispatch path allocates %.1f allocs per 40 events, want 0", pol, allocs)
		}
	}
	for _, pol := range []Scheduler{SchedFCFS, SchedSSTF, SchedSCAN, SchedAgedSSTF} {
		t.Run(pol.String(), func(t *testing.T) {
			s := startAllocHarness(t, cfgFor(pol), stridedTrace(1, 4000, true))
			s.stepN(3000) // pools, queues, and the depth ring reach high water
			measure(t, s, pol)
		})
	}
	const procs = 40
	for _, pol := range []Scheduler{SchedSSTF, SchedSCAN, SchedAgedSSTF} {
		t.Run("deep-"+pol.String(), func(t *testing.T) {
			traces := make([][]*trace.Record, procs)
			for i := range traces {
				traces[i] = stridedTrace(uint32(i+1), 400, false)
			}
			cfg := cfgFor(pol)
			// Room for all 40 in-flight reads; read-only traces keep
			// every cached block clean, so eviction stays cheap.
			cfg.CacheBytes = 32 << 20
			s := startAllocHarness(t, cfg, traces...)
			s.stepN(20000) // high water, with every process queued at the volumes
			deepest := 0
			for i := range s.disk.vols {
				deepest = max(deepest, s.disk.vols[i].maxQueueDepth)
			}
			if deepest < 32 {
				t.Fatalf("deepest volume queue %d, want >= 32 for a deep-queue pick", deepest)
			}
			measure(t, s, pol)
		})
	}
}
