package cray

import "testing"

func TestMemoryConversions(t *testing.T) {
	if MWToBytes(1) != 8<<20 {
		t.Errorf("1 MW = %d bytes, want %d", MWToBytes(1), 8<<20)
	}
	if MWToBytes(128) != int64(128)*8<<20 {
		t.Error("128 MW conversion wrong")
	}
}

func TestDefaultMachine(t *testing.T) {
	ssd := DefaultSSD()
	if ssd.CapacityBytes() != MWToBytes(256) {
		t.Errorf("SSD capacity = %d", ssd.CapacityBytes())
	}
	// "each processor's share is 32 MW" (§6.3)
	if ssd.PerCPUShareBytes() != MWToBytes(32) {
		t.Errorf("per-CPU SSD share = %d, want 32 MW", ssd.PerCPUShareBytes())
	}
	// Aggregate volume bandwidth must cover venus's >40 MB/s demand (§6.2).
	if bw := DefaultVolume().BandwidthBytesPerSec(); bw < 40e6 {
		t.Errorf("volume bandwidth %.1f MB/s cannot satisfy the paper's workloads", bw/1e6)
	}
	d := DefaultDisk()
	if d.TransferBytesPerSec != 9.6e6 {
		t.Errorf("disk transfer = %v, want 9.6 MB/s", d.TransferBytesPerSec)
	}
	if d.MinSeekMs >= d.MaxSeekMs {
		t.Error("seek bounds inverted")
	}
}

func TestQueueClassify(t *testing.T) {
	q := DefaultQueues()
	c, err := q.classify(Job{Name: "tiny", MemoryMW: 2, CPUSec: 100})
	if err != nil || c.Name != "small" {
		t.Errorf("classify tiny = %v, %v", c.Name, err)
	}
	c, err = q.classify(Job{Name: "big", MemoryMW: 60, CPUSec: 30000})
	if err != nil || c.Name != "large" {
		t.Errorf("classify big = %v, %v", c.Name, err)
	}
	// CPU limit pushes a small-memory job into a later queue.
	c, err = q.classify(Job{Name: "long", MemoryMW: 2, CPUSec: 2000})
	if err != nil || c.Name != "medium" {
		t.Errorf("classify long = %v, %v", c.Name, err)
	}
	if _, err := q.classify(Job{Name: "huge", MemoryMW: 1024, CPUSec: 1}); err == nil {
		t.Error("oversized job classified")
	}
}

func TestScheduleSmallMemoryTurnsAroundFaster(t *testing.T) {
	// The §2.2 effect: with equal CPU demand, the job that asks for less
	// memory finishes sooner because its queue multiprograms more jobs.
	q := DefaultQueues()
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Name: "small", MemoryMW: 4, CPUSec: 100})
		jobs = append(jobs, Job{Name: "large", MemoryMW: 64, CPUSec: 100})
	}
	pl, err := q.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var smallMax, largeMax float64
	for _, p := range pl {
		switch p.Job.Name {
		case "small":
			if p.Turnaround > smallMax {
				smallMax = p.Turnaround
			}
		case "large":
			if p.Turnaround > largeMax {
				largeMax = p.Turnaround
			}
		}
	}
	if smallMax >= largeMax {
		t.Errorf("small-memory jobs should turn around faster: small %v vs large %v", smallMax, largeMax)
	}
}

func TestScheduleRespectsPartition(t *testing.T) {
	q := QueueSystem{Classes: []QueueClass{{Name: "q", MemoryMW: 8, CPULimitSec: 1000, PartitionMW: 8}}}
	jobs := []Job{
		{Name: "a", MemoryMW: 8, CPUSec: 10},
		{Name: "b", MemoryMW: 8, CPUSec: 10},
	}
	pl, err := q.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Partition holds one job at a time: b starts when a finishes.
	if pl[0].Job.Name != "a" || pl[1].Job.Name != "b" {
		t.Fatalf("completion order wrong: %v", pl)
	}
	if pl[1].StartSec != pl[0].FinishSec {
		t.Errorf("b started at %v, want %v", pl[1].StartSec, pl[0].FinishSec)
	}
	// FIFO within queue preserved.
	if pl[0].FinishSec != 10 || pl[1].FinishSec != 20 {
		t.Errorf("finish times %v, %v", pl[0].FinishSec, pl[1].FinishSec)
	}
}

func TestScheduleConcurrencyWithinPartition(t *testing.T) {
	q := QueueSystem{Classes: []QueueClass{{Name: "q", MemoryMW: 4, CPULimitSec: 1000, PartitionMW: 12}}}
	jobs := []Job{
		{Name: "a", MemoryMW: 4, CPUSec: 10},
		{Name: "b", MemoryMW: 4, CPUSec: 10},
		{Name: "c", MemoryMW: 4, CPUSec: 10},
		{Name: "d", MemoryMW: 4, CPUSec: 10},
	}
	pl, err := q.Schedule(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Three fit at once; the fourth waits for the first to retire.
	starts := map[string]float64{}
	for _, p := range pl {
		starts[p.Job.Name] = p.StartSec
	}
	if starts["a"] != 0 || starts["b"] != 0 || starts["c"] != 0 {
		t.Errorf("first three should start immediately: %v", starts)
	}
	if starts["d"] != 10 {
		t.Errorf("fourth should wait for memory: start = %v", starts["d"])
	}
}

func TestScheduleErrors(t *testing.T) {
	q := DefaultQueues()
	if _, err := q.Schedule([]Job{{Name: "x", MemoryMW: 9999, CPUSec: 1}}); err == nil {
		t.Error("unclassifiable job scheduled")
	}
	bad := QueueSystem{Classes: []QueueClass{{Name: "q", MemoryMW: 16, CPULimitSec: 100, PartitionMW: 8}}}
	if _, err := bad.Schedule([]Job{{Name: "x", MemoryMW: 16, CPUSec: 1}}); err == nil {
		t.Error("job larger than its queue's partition scheduled")
	}
}

func TestVolumeSplitConservesSpindles(t *testing.T) {
	v := DefaultVolume() // 10 spindles
	for _, n := range []int{2, 5} {
		s := v.Split(n)
		if s.Stripe*n != v.Stripe {
			t.Errorf("Split(%d) stripe %d: %d shards lose spindles vs %d", n, s.Stripe, s.Stripe*n, v.Stripe)
		}
		if s.Disk != v.Disk {
			t.Errorf("Split(%d) changed the disk model", n)
		}
		// Aggregate bandwidth of the shards equals the original volume's.
		if agg := s.BandwidthBytesPerSec() * float64(n); agg != v.BandwidthBytesPerSec() {
			t.Errorf("Split(%d) aggregate bandwidth %.1f, want %.1f", n, agg, v.BandwidthBytesPerSec())
		}
	}
	// A shard never drops below one spindle, and n < 2 is the identity.
	if s := v.Split(100); s.Stripe != 1 {
		t.Errorf("Split(100) stripe %d, want floor of 1", s.Stripe)
	}
	if v.Split(1) != v || v.Split(0) != v {
		t.Error("Split(<2) must be the identity")
	}
}
