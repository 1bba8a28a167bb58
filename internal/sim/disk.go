package sim

import (
	"iotrace/internal/cray"
	"iotrace/internal/trace"
)

// Placement selects how file data maps onto a multi-volume array. With
// one volume (the paper's configuration) every policy degenerates to the
// same single striped logical volume, byte for byte.
type Placement int

const (
	// PlaceStripe distributes file blocks round-robin across the
	// volumes in StripeUnitBytes units, RAID-0 style: stripe unit k of
	// a file lives on volume (k + hash(file)) mod N, at volume-local
	// unit k div N. The per-file hash rotates each file's starting
	// volume (as Lustre-style layouts do), so many small files spread
	// across the array instead of piling their first units onto volume
	// 0; large transfers engage every volume at once either way.
	PlaceStripe Placement = iota

	// PlaceFileHash assigns each file wholly to one volume chosen by
	// hashing its file id — the file-affine layout of servers that shard
	// by object. A single hot file saturates one volume while the
	// others idle; the examples/sharding walkthrough measures exactly
	// that contrast against PlaceStripe.
	PlaceFileHash
)

func (p Placement) String() string {
	if p == PlaceFileHash {
		return "filehash"
	}
	return "stripe"
}

// volume is one independent spindle group of the array: it keeps its own
// synthetic file layout, head position, busy window (queueing mode), and
// stats. With Config.NumVolumes == 1 the single volume reproduces the
// paper's striped logical volume exactly.
//
// Following §6.1, there is no request queueing by default: "the completion
// time of a specific I/O was dependent only on the location of the I/O and
// how 'close' the I/O was to the previous I/O" — concurrent requests do
// not delay one another (the paper notes this simplification significantly
// affected its results; DiskQueueing is the ablation). Perfectly
// sequential successors pay pure transfer time; anything else pays a
// distance-scaled seek plus half a rotation.
//
// Because the traces are logical, files are laid out at synthetic volume
// positions: each file gets a fixed base on first touch, spaced far enough
// apart that switching files costs a real seek — the §6.2 effect where
// venus's interleaved staging files inserted seek delays.
type volume struct {
	fileBase map[uint32]int64
	nextBase int64
	lastPos  int64

	busyUntil trace.Ticks // FCFS queueing: closed-form departure clock

	// Deferred-scheduler (SSTF/SCAN) queue state: pending segments in
	// arrival order, the segment in service, and the elevator
	// direction. FCFS never materializes the queue — its dispatch order
	// is arrival order, so departures are computed at arrival.
	queue     []volPending
	cur       volPending
	inService bool
	scanUp    bool

	// pend is the FCFS path's in-flight completion-time ring, kept only
	// for queue-depth accounting (noteFCFSQueue).
	pend     []trace.Ticks
	pendHead int

	flushBusy bool // an in-flight flusher run covers this volume

	// Fault state (inert at zero; only consulted when a FaultPlan is
	// configured). downCnt counts overlapping outage events; slow is the
	// product of active slowdown factors (0 = healthy, so the zero value
	// costs nothing in accessTime); gen stales a frozen segment's posted
	// evVolDone; curDone/frozen carry the in-service segment's scheduled
	// finish and its unserved remainder across an outage.
	downCnt int
	slow    float64
	gen     uint32
	curDone trace.Ticks
	frozen  trace.Ticks

	// Stats.
	reads, writes           int64
	readBytes, writeBytes   int64
	busyTicks               trace.Ticks
	seekTicks               trace.Ticks // attribution only; never scheduled
	transferTicks           trace.Ticks // attribution only; never scheduled
	maxObservedSeekDistance int64
	maxQueueDepth           int
	queueWaits              int64
	queueWaitTicks          trace.Ticks
	procQ                   []procWaitAcc // per-pid queue-wait ledger
}

// procWaitAcc accumulates one process's queue waits on one volume
// (VolumeQueueStats.PerProc).
type procWaitAcc struct {
	pid       uint32
	waits     int64
	waitTicks trace.Ticks
	maxWait   trace.Ticks
}

// fileSpacing separates synthetic file bases; crossing files costs a
// mid-range seek (~13 ms with rotation, the paper's "as long as 15 ms").
const fileSpacing = 256 << 20

// seekScale is the distance at which a seek reaches its maximum.
const seekScale = 2 << 30

// pos maps a volume-local (file, offset) pair to a synthetic position on
// this volume. Bases are assigned on first touch, per volume.
func (v *volume) pos(fileID uint32, off int64) int64 {
	base, ok := v.fileBase[fileID]
	if !ok {
		base = v.nextBase
		v.fileBase[fileID] = base
		v.nextBase += fileSpacing
	}
	return base + off
}

// diskSegment is the part of one request that lands on one volume: a
// contiguous span in that volume's local file coordinates.
type diskSegment struct {
	vol  int
	file uint32
	off  int64 // volume-local file offset
	size int64
}

// disk models the storage tier behind the cache: an array of NumVolumes
// independent volumes with a placement policy routing requests onto them.
type disk struct {
	model      cray.Volume
	queueing   bool
	sched      Scheduler
	interrupt  trace.Ticks
	placement  Placement
	stripeUnit int64

	vols []volume

	segs []diskSegment // reusable request-split scratch

	// Inline backing stores: the single-volume configuration (the
	// default, and the benchmark-gated hot path) must not allocate more
	// than the pre-sharding engine did, so its one volume and its
	// identity segment live inside the disk struct. Wider arrays spill
	// to the heap once, at construction.
	vol1       [1]volume
	segsInline [4]diskSegment
}

func newDisk(cfg *Config) *disk {
	n := cfg.NumVolumes
	if n < 1 {
		n = 1
	}
	d := &disk{
		model:      cfg.Volume,
		queueing:   cfg.DiskQueueing,
		sched:      cfg.Scheduler,
		interrupt:  cfg.InterruptTicks,
		placement:  cfg.Placement,
		stripeUnit: cfg.StripeUnitBytes,
	}
	if n == 1 {
		d.vols = d.vol1[:]
	} else {
		d.vols = make([]volume, n)
	}
	d.segs = d.segsInline[:0]
	for i := range d.vols {
		d.vols[i] = volume{
			fileBase: make(map[uint32]int64),
			// The head starts parked away from any file base, so the
			// first access to each file pays a real seek.
			nextBase: fileSpacing,
			// The elevator's first sweep is ascending.
			scanUp: true,
		}
	}
	return d
}

// hashVolume maps a file id onto a volume index (Knuth multiplicative
// hash, so consecutive file ids spread rather than cluster).
func (d *disk) hashVolume(fileID uint32) int {
	return int((uint64(fileID) * 2654435761) % uint64(len(d.vols)))
}

// homeVolume returns the volume owning the byte at off of file — the
// volume any request *starting* there must touch. Agrees with split's
// first segment by construction.
func (d *disk) homeVolume(fileID uint32, off int64) int {
	n := int64(len(d.vols))
	if n == 1 {
		return 0
	}
	if d.placement == PlaceFileHash {
		return d.hashVolume(fileID)
	}
	return int((off/d.stripeUnit + int64(d.hashVolume(fileID))) % n)
}

// split decomposes one request into per-volume segments, reusing the
// disk's scratch buffer. Exactly one volume (N == 1) always yields the
// identity segment, so the single-volume path is byte-identical to the
// pre-sharding engine regardless of policy. With striping, the units a
// request covers on one volume are contiguous in that volume's local
// file coordinates, so each touched volume contributes one segment, in
// file order.
func (d *disk) split(fileID uint32, off, size int64) []diskSegment {
	segs := d.segs[:0]
	n := int64(len(d.vols))
	if n == 1 {
		segs = append(segs, diskSegment{vol: 0, file: fileID, off: off, size: size})
		d.segs = segs
		return segs
	}
	if d.placement == PlaceFileHash {
		segs = append(segs, diskSegment{vol: d.hashVolume(fileID), file: fileID, off: off, size: size})
		d.segs = segs
		return segs
	}
	u := d.stripeUnit
	// rot rotates this file's starting volume so small files spread
	// across the array instead of all starting on volume 0.
	rot := int64(d.hashVolume(fileID))
	firstUnit := off / u
	if size <= 0 {
		// A zero-length request (a pure reposition) lands on the unit's
		// owning volume and pays only that volume's seek.
		segs = append(segs, diskSegment{
			vol:  int((firstUnit + rot) % n),
			file: fileID,
			off:  (firstUnit/n)*u + off%u,
			size: size,
		})
		d.segs = segs
		return segs
	}
	lastUnit := (off + size - 1) / u
	// Each volume owning any unit of [firstUnit, lastUnit] appears once;
	// walking the first min(N, units) units visits them in file order.
	for k := firstUnit; k <= lastUnit && k < firstUnit+n; k++ {
		// k0/k1: first/last unit of this request owned by volume
		// (k + rot) mod n. Units k0, k0+n, ..., k1 map to contiguous
		// volume-local positions (k0/n)*u, (k0/n+1)*u, ..., so the
		// volume's share is one span, partial only at the request's own
		// edges. The rotation relabels which volume owns the span; the
		// volume-local coordinates are untouched.
		k0 := k
		k1 := lastUnit - (lastUnit-k)%n
		start := (k0 / n) * u
		if k0 == firstUnit {
			start += off - k0*u
		}
		end := (k1 / n) * u
		if k1 == lastUnit {
			end += off + size - k1*u
		} else {
			end += u
		}
		segs = append(segs, diskSegment{vol: int((k + rot) % n), file: fileID, off: start, size: end - start})
	}
	d.segs = segs
	return segs
}

// accessTime returns the service time for one request at the given
// position on volume v, and updates that volume's head-position
// approximation. Seek-vs-transfer attribution lands in the volume's
// stats; the returned duration is computed exactly as the single-volume
// engine always has.
func (d *disk) accessTime(v *volume, p int64, size int64) trace.Ticks {
	dist := p - v.lastPos
	if dist < 0 {
		dist = -dist
	}
	if dist > v.maxObservedSeekDistance {
		v.maxObservedSeekDistance = dist
	}
	v.lastPos = p + size

	var seekMs float64
	if dist > 0 {
		frac := float64(dist) / float64(seekScale)
		if frac > 1 {
			frac = 1
		}
		seekMs = d.model.Disk.MinSeekMs + (d.model.Disk.MaxSeekMs-d.model.Disk.MinSeekMs)*frac
		seekMs += d.model.Disk.HalfRotationMs
	}
	transferMs := float64(size) / d.model.BandwidthBytesPerSec() * 1000
	if v.slow > 1 {
		// A degraded volume pays its fault plan's slowdown factor on the
		// whole service: longer settle times and a slower channel alike.
		seekMs *= v.slow
		transferMs *= v.slow
	}
	v.seekTicks += trace.Ticks(seekMs*100 + 0.5)
	v.transferTicks += trace.Ticks(transferMs*100 + 0.5)
	ms := seekMs + transferMs
	return trace.Ticks(ms*100 + 0.5) // 100 ticks per ms
}

// physOp describes the provenance of a disk request for physical-level
// trace emission.
type physOp struct {
	kind trace.RecordType // FileData, ReadAheadK (prefetch), etc.
	op   uint32           // logical operation id (0 for background work)
	pid  uint32           // requesting process (0 for background work)
}

// volumeDeviceID is the fileId base physical records carry: volume i of
// the array appears as device i+1, so the paper's single striped volume
// remains device 1.
const volumeDeviceID = 1

// access performs one disk request, posting the done event when the data
// has transferred and the completion interrupt has been serviced.
func (s *Simulator) diskAccess(fileID uint32, off, size int64, write bool, done event) {
	s.diskAccessTagged(fileID, off, size, write, physOp{kind: trace.FileData}, done)
}

// diskAccessTagged routes one request through placement onto the volume
// array. Each touched volume services its segment independently (its own
// seek, its own busy window in queueing mode); the request completes when
// the slowest segment has transferred and the completion interrupt has
// been serviced — volumes transfer in parallel, which is the entire
// bandwidth case for sharding.
//
// Deferred schedulers (SSTF, SCAN) go through the per-volume request
// queues instead: dispatch order — and therefore seek attribution — is
// decided when the head frees up, not at arrival (sched.go). FCFS stays
// on the closed-form path below, which is byte-identical to the
// pre-scheduler queueing engine.
func (s *Simulator) diskAccessTagged(fileID uint32, off, size int64, write bool, tag physOp, done event) {
	if s.burst != nil && write && size > 0 && s.burstAbsorb(fileID, off, size, tag, done) {
		return
	}
	s.volumeAccess(fileID, off, size, write, tag, done, true)
}

// volumeAccess services one request at the volume array. viaBackbone
// routes the completion across the shared backbone when one is
// configured; burst-buffer drains pass false (they sit behind the
// backbone, not on it).
func (s *Simulator) volumeAccess(fileID uint32, off, size int64, write bool, tag physOp, done event, viaBackbone bool) {
	d := s.disk
	if s.faults != nil && s.anyVolDown(fileID, off, size) {
		// A volume this request touches is down: hold it for retry with
		// backoff instead of admitting it (every admission path funnels
		// through here — demand fetches, bypasses, write-through, burst
		// drains; the flusher is gated earlier and never reaches this).
		s.holdForRetry(fileID, off, size, write, tag, done, viaBackbone)
		return
	}
	if d.queueing && d.sched != SchedFCFS {
		s.scheduleAccess(fileID, off, size, write, tag, done, viaBackbone)
		return
	}
	var maxWait trace.Ticks
	for _, seg := range d.split(fileID, off, size) {
		v := &d.vols[seg.vol]
		p := v.pos(seg.file, seg.off)
		dur := d.accessTime(v, p, seg.size)

		var wait trace.Ticks
		if d.queueing {
			// FCFS at each volume: start no earlier than that volume's
			// previous request's completion.
			start := s.now
			if v.busyUntil > start {
				start = v.busyUntil
			}
			v.busyUntil = start + dur
			wait = (start - s.now) + dur
			v.noteFCFSQueue(s.now, start, dur, tag.pid)
		} else {
			wait = dur
		}
		v.busyTicks += dur

		if write {
			v.writes++
			v.writeBytes += seg.size
			s.diskWriteRate.AddSpread(int64(s.now+wait-dur), int64(dur), float64(seg.size))
		} else {
			v.reads++
			v.readBytes += seg.size
			s.diskReadRate.AddSpread(int64(s.now+wait-dur), int64(dur), float64(seg.size))
		}

		if s.cfg.RecordPhysical {
			rt := trace.PhysicalRecord | tag.kind
			if write {
				rt |= trace.WriteOp
			}
			// Physical records store block numbers and block counts
			// (TRACE_BLOCK_SIZE units). The paper reserves processId for
			// logical records; we carry the requester when known, which
			// the format tolerates and the logical/physical join needs.
			s.physical = append(s.physical, &trace.Record{
				Type:        rt,
				FileID:      volumeDeviceID + uint32(seg.vol),
				Offset:      p / trace.BlockSize,
				Length:      (seg.size + trace.BlockSize - 1) / trace.BlockSize,
				Start:       s.now + wait - dur,
				Completion:  dur,
				OperationID: tag.op,
				ProcessID:   tag.pid,
			})
		}
		if wait > maxWait {
			maxWait = wait
		}
	}
	if !viaBackbone {
		s.post(maxWait+d.interrupt, done)
		return
	}
	s.finishVolumeAccess(maxWait, size, tag, done)
}
