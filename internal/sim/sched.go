package sim

import (
	"fmt"

	"iotrace/internal/trace"
)

// Scheduler selects the order in which a volume services its queued
// requests when DiskQueueing is on. The paper's simulator omits request
// queueing entirely ("no queueing at the channel or device", §6.1);
// queueing mode is the ablation for that simplification, and the
// scheduler is the policy knob on top of it: once requests wait in a
// per-volume queue, the order they are dispatched in decides how much
// seek time the head pays.
//
// Without DiskQueueing the scheduler is ignored — there is no queue to
// reorder, every request is serviced the moment it arrives.
type Scheduler int

const (
	// SchedFCFS services requests in arrival order — the behavior the
	// queueing ablation has always had. Because arrival order fully
	// determines dispatch order, FCFS departures are computed in closed
	// form at arrival (the per-volume busyUntil clock) and replay
	// byte-identically to the pre-scheduler queueing engine.
	SchedFCFS Scheduler = iota

	// SchedSSTF services the pending request with the shortest seek
	// from the current head position (ties go to the earliest arrival).
	// Greedy and throughput-optimal locally; can starve distant
	// requests under sustained load.
	SchedSSTF

	// SchedSCAN runs the elevator: the head sweeps in ascending
	// position order servicing every pending request it passes, then
	// reverses and sweeps descending. Bounded unfairness, near-SSTF
	// seek totals on seek-heavy mixes.
	SchedSCAN

	// SchedAgedSSTF is shortest-seek-first with linear aging: each
	// pending segment's effective distance shrinks by agedSSTFAging
	// bytes per tick it has waited, so a request parked far from the
	// head eventually outranks fresh head-adjacent arrivals. This
	// bounds the per-process starvation SSTF exhibits under sustained
	// load (visible in VolumeQueueStats.PerProc) while keeping most of
	// its seek advantage; with an empty or single-entry queue it is
	// exactly SSTF.
	SchedAgedSSTF
)

func (s Scheduler) String() string {
	switch s {
	case SchedSSTF:
		return "sstf"
	case SchedSCAN:
		return "scan"
	case SchedAgedSSTF:
		return "aged-sstf"
	default:
		return "fcfs"
	}
}

// ParseScheduler converts a policy name ("fcfs", "sstf", "scan",
// "aged-sstf") to a Scheduler.
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "fcfs":
		return SchedFCFS, nil
	case "sstf":
		return SchedSSTF, nil
	case "scan", "elevator":
		return SchedSCAN, nil
	case "aged-sstf", "asstf":
		return SchedAgedSSTF, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want fcfs, sstf, scan, or aged-sstf)", s)
}

// agedSSTFAging is SchedAgedSSTF's aging rate: the seek distance (bytes)
// one tick of queue wait is worth. At 32 KiB/tick, ~0.66 s of waiting
// outweighs the maximum seek (seekScale = 2 GiB), so no segment waits
// much longer than that behind a stream of closer arrivals.
const agedSSTFAging = 1 << 15

// VolumeQueueStats reports one volume's request-queue activity under
// DiskQueueing. Result.VolumeQueues carries one entry per volume when
// queueing is on (nil otherwise — without queueing there is no queue to
// measure).
type VolumeQueueStats struct {
	// MaxDepth is the deepest the volume's queue got, counting the
	// request in service and the arriving request itself: 1 means no
	// request ever waited.
	MaxDepth int
	// Waits counts requests that arrived while the volume was busy and
	// had to queue.
	Waits int64
	// WaitSec is the total time requests spent queued before their
	// service began.
	WaitSec float64

	// PerProc breaks queue waits down by requesting process, in PID
	// order — the fairness ledger that makes SSTF starvation visible:
	// under sustained load a distant process's WaitSec and MaxWaitSec
	// grow while the head-adjacent process's stay flat. Requests with
	// no attributable process (background flusher work on unowned
	// blocks) land under PID 0.
	PerProc []ProcQueueStats
}

// ProcQueueStats is one process's share of a volume's queue waits.
// Unlike the aggregate Waits (counted at arrival), per-process entries
// are settled at dispatch: Waits counts this process's requests that
// waited at all, WaitSec sums their waits, MaxWaitSec is the single
// longest wait — the starvation indicator.
type ProcQueueStats struct {
	PID        uint32
	Waits      int64
	WaitSec    float64
	MaxWaitSec float64
}

// FlushStats reports the background flusher's write-back activity.
type FlushStats struct {
	// Runs counts write-back runs issued.
	Runs int64
	// MaxConcurrent is the peak number of runs in flight at once. It
	// exceeds 1 only on multi-volume arrays, where runs on disjoint
	// volumes overlap.
	MaxConcurrent int
	// OverlapSec is the wall time during which at least two runs were
	// in flight — the overlap placement-aware flushing buys.
	OverlapSec float64
}

// volPending is one segment waiting in a volume's queue under a
// deferred scheduler (SSTF, SCAN). The synthetic position is computed
// at enqueue (file bases are assigned on first touch, in arrival
// order), so policy decisions compare plain integers.
type volPending struct {
	pos   int64 // synthetic volume position of the segment's first byte
	size  int64
	enq   trace.Ticks // arrival time, for wait accounting
	dr    *diskReq    // parent request join
	tag   physOp
	write bool
}

// diskReq joins the per-volume segments of one request under a deferred
// scheduler: the request's completion is posted when its last segment
// finishes, plus the completion interrupt (crossing the shared backbone
// first when one is configured). Recycled through the simulator's
// free-list.
type diskReq struct {
	remaining   int
	bytes       int64
	tag         physOp
	viaBackbone bool
	done        event
	freeNext    *diskReq
}

func (s *Simulator) newDiskReq(done event, n int, bytes int64, tag physOp, viaBackbone bool) *diskReq {
	dr := s.reqFree
	if dr != nil {
		s.reqFree = dr.freeNext
		dr.freeNext = nil
	} else {
		dr = &diskReq{}
	}
	dr.remaining, dr.done = n, done
	dr.bytes, dr.tag, dr.viaBackbone = bytes, tag, viaBackbone
	return dr
}

func (s *Simulator) freeDiskReq(dr *diskReq) {
	dr.done = event{}
	dr.freeNext = s.reqFree
	s.reqFree = dr
}

// noteProcWait settles one request's queue wait against its process's
// per-pid ledger. Zero waits are not recorded (the per-process counters
// track requests that waited at all). The pid table is a compact slice
// scanned linearly — a handful of processes per run — appended to once
// per (volume, pid) pair, so the steady state allocates nothing.
func (v *volume) noteProcWait(pid uint32, wait trace.Ticks) {
	if wait <= 0 {
		return
	}
	for i := range v.procQ {
		if v.procQ[i].pid == pid {
			v.procQ[i].waits++
			v.procQ[i].waitTicks += wait
			if wait > v.procQ[i].maxWait {
				v.procQ[i].maxWait = wait
			}
			return
		}
	}
	v.procQ = append(v.procQ, procWaitAcc{pid: pid, waits: 1, waitTicks: wait, maxWait: wait})
}

// noteFCFSQueue tracks queue-depth statistics for the closed-form FCFS
// path: pend is a ring of in-flight completion times (nondecreasing,
// since each departure extends busyUntil), pruned at every arrival.
func (v *volume) noteFCFSQueue(now, start, dur trace.Ticks, pid uint32) {
	for v.pendHead < len(v.pend) && v.pend[v.pendHead] <= now {
		v.pendHead++
	}
	if v.pendHead == len(v.pend) {
		v.pend, v.pendHead = v.pend[:0], 0
	} else if v.pendHead >= 256 {
		// Compact so the ring stays bounded by the in-flight high-water
		// mark instead of growing with total request count.
		n := copy(v.pend, v.pend[v.pendHead:])
		v.pend, v.pendHead = v.pend[:n], 0
	}
	depth := len(v.pend) - v.pendHead + 1
	if depth > v.maxQueueDepth {
		v.maxQueueDepth = depth
	}
	if start > now {
		v.queueWaits++
		v.queueWaitTicks += start - now
		v.noteProcWait(pid, start-now)
	}
	v.pend = append(v.pend, start+dur)
}

// scheduleAccess routes one request through the deferred (SSTF/SCAN)
// per-volume queues: each segment is enqueued on its volume and the
// request completes when the slowest segment has been serviced plus the
// completion interrupt. Idle volumes dispatch immediately.
func (s *Simulator) scheduleAccess(fileID uint32, off, size int64, write bool, tag physOp, done event, viaBackbone bool) {
	d := s.disk
	segs := d.split(fileID, off, size)
	dr := s.newDiskReq(done, len(segs), size, tag, viaBackbone)
	for _, seg := range segs {
		v := &d.vols[seg.vol]
		p := v.pos(seg.file, seg.off)
		depth := len(v.queue) + 1
		if v.inService {
			depth++
			v.queueWaits++
		}
		if depth > v.maxQueueDepth {
			v.maxQueueDepth = depth
		}
		v.queue = append(v.queue, volPending{
			pos: p, size: seg.size, enq: s.now, dr: dr, tag: tag, write: write,
		})
		if !v.inService {
			s.volDispatch(seg.vol)
		}
	}
}

// removeQueued removes index i from the arrival-ordered queue and
// returns the segment.
func (v *volume) removeQueued(i int) volPending {
	req := v.queue[i]
	copy(v.queue[i:], v.queue[i+1:])
	v.queue[len(v.queue)-1] = volPending{} // drop the dr pointer
	v.queue = v.queue[:len(v.queue)-1]
	return req
}

// volDispatch picks the next queued segment by policy and puts it in
// service: the volume's head moves, seek/transfer attribution lands in
// its stats, and the segment's completion fires as evVolDone.
func (s *Simulator) volDispatch(vi int) {
	d := s.disk
	v := &d.vols[vi]
	if len(v.queue) == 0 {
		v.inService = false
		return
	}
	if s.faults != nil && v.downCnt > 0 {
		// The volume is down: leave the queue parked (inService false);
		// thawVolume re-dispatches at recovery. Only requests already
		// queued before the outage wait here — new arrivals are held for
		// retry at admission.
		v.inService = false
		return
	}
	req := v.removeQueued(v.pickNext(d.sched, s.now))
	v.inService = true
	v.cur = req
	v.queueWaitTicks += s.now - req.enq
	v.noteProcWait(req.tag.pid, s.now-req.enq)

	dur := d.accessTime(v, req.pos, req.size)
	v.busyTicks += dur
	v.curDone = s.now + dur
	if req.write {
		v.writes++
		v.writeBytes += req.size
		s.diskWriteRate.AddSpread(int64(s.now), int64(dur), float64(req.size))
	} else {
		v.reads++
		v.readBytes += req.size
		s.diskReadRate.AddSpread(int64(s.now), int64(dur), float64(req.size))
	}
	if s.cfg.RecordPhysical {
		rt := trace.PhysicalRecord | req.tag.kind
		if req.write {
			rt |= trace.WriteOp
		}
		// Emitted at dispatch, so physical records appear in service
		// order — under a reordering scheduler that is the point.
		s.physical = append(s.physical, &trace.Record{
			Type:        rt,
			FileID:      volumeDeviceID + uint32(vi),
			Offset:      req.pos / trace.BlockSize,
			Length:      (req.size + trace.BlockSize - 1) / trace.BlockSize,
			Start:       s.now,
			Completion:  dur,
			OperationID: req.tag.op,
			ProcessID:   req.tag.pid,
		})
	}
	s.post(dur, event{kind: evVolDone, vol: int32(vi), tick: trace.Ticks(v.gen)})
}

// volDone retires the in-service segment: the parent request completes
// when its last segment lands, and the volume dispatches its next
// queued segment, if any. A stale gen means an outage froze this
// segment after its completion was posted; thawVolume reposts it.
func (s *Simulator) volDone(vi int, gen uint32) {
	v := &s.disk.vols[vi]
	if gen != v.gen {
		return
	}
	dr := v.cur.dr
	v.cur = volPending{}
	dr.remaining--
	if dr.remaining == 0 {
		if dr.viaBackbone {
			s.finishVolumeAccess(0, dr.bytes, dr.tag, dr.done)
		} else {
			s.post(s.disk.interrupt, dr.done)
		}
		s.freeDiskReq(dr)
	}
	s.volDispatch(vi)
}

// pickNext returns the queue index the policy services next, by a
// linear scan of the arrival-ordered queue: first-encountered wins
// break every tie toward the earliest arrival, deterministic across
// runs by construction.
func (v *volume) pickNext(pol Scheduler, now trace.Ticks) int {
	q := v.queue
	if len(q) == 1 {
		// A lone entry is the pick; in particular the elevator must not
		// flip direction here, even if the entry is behind the head.
		return 0
	}
	switch pol {
	case SchedSSTF:
		best, bestDist := 0, seekDist(q[0].pos, v.lastPos)
		for i := 1; i < len(q); i++ {
			if d := seekDist(q[i].pos, v.lastPos); d < bestDist {
				best, bestDist = i, d
			}
		}
		return best
	case SchedAgedSSTF:
		// Effective priority: seek distance minus accumulated age credit.
		// Strictly-less wins, so equal priorities — in particular freshly
		// co-arrived equidistant segments — fall to the earliest arrival,
		// like SSTF's ties.
		best := 0
		bestPr := seekDist(q[0].pos, v.lastPos) - int64(now-q[0].enq)*agedSSTFAging
		for i := 1; i < len(q); i++ {
			if pr := seekDist(q[i].pos, v.lastPos) - int64(now-q[i].enq)*agedSSTFAging; pr < bestPr {
				best, bestPr = i, pr
			}
		}
		return best
	case SchedSCAN:
		if v.scanUp {
			if i := v.scanPick(true); i >= 0 {
				return i
			}
			v.scanUp = false
			return v.scanPick(false)
		}
		if i := v.scanPick(false); i >= 0 {
			return i
		}
		v.scanUp = true
		return v.scanPick(true)
	}
	return 0 // FCFS never reaches here (closed-form path), but be total
}

// scanPick returns the pending segment the elevator passes next in the
// given direction — ascending: the smallest position at or above the
// head; descending: the largest at or below it — or -1 when the
// direction is exhausted.
func (v *volume) scanPick(up bool) int {
	best := -1
	for i := range v.queue {
		p := v.queue[i].pos
		if up {
			if p >= v.lastPos && (best < 0 || p < v.queue[best].pos) {
				best = i
			}
		} else {
			if p <= v.lastPos && (best < 0 || p > v.queue[best].pos) {
				best = i
			}
		}
	}
	return best
}

func seekDist(a, b int64) int64 {
	if a < b {
		return b - a
	}
	return a - b
}
