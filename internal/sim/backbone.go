package sim

import (
	"fmt"
	"math"
	"sort"

	"iotrace/internal/trace"
)

// This file models the shared I/O backbone — the bandwidth-limited path
// every cache<->volume transfer crosses — and the optional burst-buffer
// tier in front of the volume array. The paper's simulator runs each
// application's I/O in isolation; real machines (and the congestion
// literature: Aupy et al.'s periodic schedules, Cloud's shared-
// interconnect bottleneck) couple applications through exactly this
// path. With Config.BackboneMBps == 0 the subsystem is compiled out of
// the event flow entirely and runs replay byte-identically to the
// isolated engine (TestBackboneOffGoldenEquivalence).
//
// A transfer enters the backbone after its volume service completes
// (reads: data is off the platters; writes: the volume has accepted it)
// and before the completion interrupt fires. The backbone scheduler
// decides when the transfer's bytes have crossed; the interrupt is then
// serviced and the original completion event fires. Transfers are
// pooled values linked through the typed event heap — no closures, no
// per-transfer allocation in steady state.

// BackboneSched selects how the shared backbone arbitrates bandwidth
// among the applications with transfers in flight.
type BackboneSched int

const (
	// BackboneFIFO is the uncoordinated baseline: one global queue,
	// each transfer crossing at full backbone bandwidth in arrival
	// order. Small requests convoy behind large ones regardless of
	// which application issued them.
	BackboneFIFO BackboneSched = iota

	// BackboneFairShare divides the backbone max-min fairly among the
	// applications with a transfer in flight: each active app's head
	// transfer progresses at bandwidth/activeApps, and rates are
	// recomputed at every arrival and departure epoch (the online
	// greedy scheduler of the congestion literature).
	BackboneFairShare

	// BackbonePeriodic runs Aupy-style round-based scheduling: the
	// schedule is a fixed period split into one exclusive window per
	// registered application, repeating forever. During its window an
	// app's transfers cross at full backbone bandwidth; outside it they
	// wait. Applications whose bursts fit their window stop interfering
	// with each other entirely — the paper's case for computing
	// periodic schedules offline instead of reacting greedily.
	BackbonePeriodic
)

func (b BackboneSched) String() string {
	switch b {
	case BackboneFairShare:
		return "fair"
	case BackbonePeriodic:
		return "periodic"
	default:
		return "fifo"
	}
}

// ParseBackboneSched converts a scheduler name ("fifo", "fair",
// "periodic") to a BackboneSched.
func ParseBackboneSched(s string) (BackboneSched, error) {
	switch s {
	case "fifo", "uncoordinated":
		return BackboneFIFO, nil
	case "fair", "fairshare", "fair-share":
		return BackboneFairShare, nil
	case "periodic":
		return BackbonePeriodic, nil
	}
	return 0, fmt.Errorf("sim: unknown backbone scheduler %q (want fifo, fair, or periodic)", s)
}

// BackboneAppStats is one application's share of backbone activity.
type BackboneAppStats struct {
	// PID identifies the application (transfers whose provenance has no
	// pid — warm-cache flushes, for instance — attribute to the first
	// registered app).
	PID uint32
	// Transfers and Bytes count this app's completed crossings.
	Transfers int64
	Bytes     int64
	// BusySec is the time this app's bytes occupied the backbone at
	// full bandwidth — its capacity share. Per-app entries sum exactly
	// to the aggregate (TestBackboneAttributionSums).
	BusySec float64
	// WaitSec is the delay this app's transfers saw beyond their ideal
	// full-bandwidth crossing time: queueing behind other transfers,
	// rate sharing, or waiting for a periodic window.
	WaitSec float64
}

// BackboneStats reports shared-backbone activity for a run.
// Result.Backbone carries it when Config.BackboneMBps > 0.
type BackboneStats struct {
	// Transfers and Bytes count completed crossings in both directions.
	Transfers int64
	Bytes     int64
	// BusySec is the total time the backbone spent moving bytes at full
	// bandwidth (sum of every transfer's ideal crossing time).
	BusySec float64
	// WaitSec is the total congestion delay across all transfers.
	WaitSec float64
	// MaxQueue is the most transfers outstanding (queued or in service)
	// at once.
	MaxQueue int
	// PerApp breaks the aggregate down by application, in PID order.
	PerApp []BackboneAppStats
}

// BurstStats reports burst-buffer activity for a run. Result.Burst
// carries it when Config.BurstBufferMB > 0.
type BurstStats struct {
	// AbsorbedWrites/AbsorbedBytes count volume-bound writes the buffer
	// accepted at backbone speed instead of volume speed.
	AbsorbedWrites int64
	AbsorbedBytes  int64
	// BypassedWrites/BypassedBytes count writes that found the buffer
	// full and went straight to the volume array.
	BypassedWrites int64
	BypassedBytes  int64
	// Drains/DrainedBytes count background drain operations from the
	// buffer to the volume array.
	Drains       int64
	DrainedBytes int64
	// PeakBytes is the buffer's occupancy high-water mark.
	PeakBytes int64
}

// transfer is one request's crossing of the shared backbone. Pooled:
// completed transfers return to the simulator's free-list, and gen
// invalidates any stale completion events still in the heap (the fair-
// share scheduler reposts completions at every epoch).
type transfer struct {
	app   int32 // dense app index into backbone.apps
	gen   uint32
	sync  bool // a process is blocked on this transfer's completion
	bytes int64
	ideal trace.Ticks // crossing time at full backbone bandwidth
	enq   trace.Ticks // backbone arrival time

	// Fair-share progress state: bytes remaining at the last epoch, the
	// granted rate since then (bytes/tick; 0 = not yet in service).
	remaining float64
	rate      float64
	since     trace.Ticks

	done     event // fires interrupt-delayed once the crossing completes
	next     *transfer
	freeNext *transfer
}

// bbApp is one registered application's backbone queue: transfers cross
// in FIFO order within an app; the scheduler arbitrates between apps.
type bbApp struct {
	pid        uint32
	head, tail *transfer
	active     bool // fair-share: head transfer holds a rate grant

	// Per-app accounting (ticks; converted to seconds at result time).
	transfers     int64
	bytes         int64
	busyTicks     trace.Ticks
	waitTicks     trace.Ticks
	syncWaitTicks trace.Ticks // waits on transfers a process was blocked on
}

// backbone is the shared-path state: per-app queues, the scheduler, and
// run-wide accounting.
type backbone struct {
	sched BackboneSched
	bw    float64 // bytes per tick

	apps []bbApp

	// BackboneFIFO's single global queue.
	fifoHead, fifoTail *transfer

	// BackboneFairShare's active-app count (apps holding rate grants).
	active int

	// BackbonePeriodic's fixed schedule: the period is divided into one
	// window of `window` ticks per registered app, app i owning phase
	// [i*window, (i+1)*window). Set by setApps.
	period trace.Ticks // configured (0 = default one second)
	window trace.Ticks

	outstanding int
	maxQueue    int

	// down marks an active fault-plan blackout: arrivals enqueue but
	// nothing starts service until backboneRestore re-grants bandwidth.
	down bool
}

func newBackbone(cfg *Config) *backbone {
	return &backbone{
		sched:  cfg.BackboneSched,
		bw:     cfg.BackboneMBps * 1e6 / float64(trace.TicksPerSecond),
		period: cfg.BackbonePeriodTicks,
	}
}

// setApps sizes the per-app state once the run's processes are known.
// The periodic schedule's effective period is window*len(procs), with
// window = period/len(procs) (at least one tick), so windows tile the
// period exactly.
func (bb *backbone) setApps(procs []*proc) {
	if len(procs) == 0 {
		return
	}
	bb.apps = make([]bbApp, len(procs))
	for i, p := range procs {
		bb.apps[i].pid = p.pid
	}
	p := bb.period
	if p <= 0 {
		p = trace.TicksPerSecond
	}
	bb.window = p / trace.Ticks(len(procs))
	if bb.window < 1 {
		bb.window = 1
	}
	bb.period = bb.window * trace.Ticks(len(procs))
}

// appIndex maps a request's pid onto a dense app index. Background work
// with no attributable pid lands on app 0.
func (bb *backbone) appIndex(pid uint32) int32 {
	for i := range bb.apps {
		if bb.apps[i].pid == pid {
			return int32(i)
		}
	}
	return 0
}

// appByPID returns the app registered for pid, nil if unknown.
func (bb *backbone) appByPID(pid uint32) *bbApp {
	for i := range bb.apps {
		if bb.apps[i].pid == pid {
			return &bb.apps[i]
		}
	}
	return nil
}

// crossTicks returns the time size bytes take at rate bytes/tick,
// rounded up to whole ticks.
func crossTicks(size int64, rate float64) trace.Ticks {
	if size <= 0 {
		return 0
	}
	return trace.Ticks(math.Ceil(float64(size) / rate))
}

// transferSync reports whether a process is blocked awaiting done: a
// synchronous bypass write (evWake), a bypass read (evWaitDone), or a
// demand fetch (evFetchDone that is not a read-ahead). Waits on these
// transfers extend the app's finish time one-for-one, so they feed the
// per-app Dilation metric.
func transferSync(done *event, tag physOp) bool {
	switch done.kind {
	case evWake, evWaitDone:
		return true
	case evFetchDone:
		return tag.kind != trace.ReadAheadK
	}
	return false
}

// newTransfer takes a transfer from the free-list (or allocates one) for
// a crossing of size bytes attributed via tag, completing into done.
func (s *Simulator) newTransfer(size int64, tag physOp, done event) *transfer {
	x := s.xferFree
	if x != nil {
		s.xferFree = x.freeNext
		x.freeNext = nil
	} else {
		x = &transfer{}
	}
	bb := s.backbone
	x.app = bb.appIndex(tag.pid)
	x.sync = transferSync(&done, tag)
	x.bytes = size
	x.ideal = crossTicks(size, bb.bw)
	x.remaining = float64(size)
	x.rate = 0
	x.done = done
	x.next = nil
	return x
}

// freeTransfer recycles a completed transfer; the gen bump invalidates
// any stale completion events still in the heap.
func (s *Simulator) freeTransfer(x *transfer) {
	x.gen++
	x.done = event{}
	x.next = nil
	x.freeNext = s.xferFree
	s.xferFree = x
}

// postTransferDone (re)schedules x's completion dt ticks out, stamping
// the event with x's new gen so earlier postings become stale.
func (s *Simulator) postTransferDone(x *transfer, dt trace.Ticks) {
	x.gen++
	s.post(dt, event{kind: evBackboneDone, x: x, tick: trace.Ticks(x.gen)})
}

// bbEnqueue admits a transfer to the backbone (evBackboneXfer, fired
// when the volume leg of the request completes).
func (s *Simulator) bbEnqueue(x *transfer) {
	bb := s.backbone
	x.enq = s.now
	bb.outstanding++
	if bb.outstanding > bb.maxQueue {
		bb.maxQueue = bb.outstanding
	}
	if bb.sched == BackboneFIFO {
		if bb.fifoTail == nil {
			bb.fifoHead = x
		} else {
			bb.fifoTail.next = x
		}
		bb.fifoTail = x
		if bb.fifoHead == x && !bb.down {
			x.since, x.rate = s.now, bb.bw
			s.postTransferDone(x, x.ideal)
		}
		return
	}
	a := &bb.apps[x.app]
	if a.tail == nil {
		a.head = x
	} else {
		a.tail.next = x
	}
	a.tail = x
	if a.head != x || bb.down {
		return // queued behind this app's in-service transfer, or blackout
	}
	switch bb.sched {
	case BackboneFairShare:
		a.active = true
		bb.active++
		s.bbEpoch() // rates change for every active app
	case BackbonePeriodic:
		s.startPeriodic(x)
	}
}

// bbEpoch recomputes the fair share at an arrival or departure: every
// active app's head transfer banks its progress at the old rate, takes
// the new rate, and has its completion reposted. Stale completions are
// filtered by gen.
func (s *Simulator) bbEpoch() {
	bb := s.backbone
	rate := bb.bw / float64(bb.active)
	for i := range bb.apps {
		a := &bb.apps[i]
		if !a.active {
			continue
		}
		h := a.head
		if h.rate > 0 {
			h.remaining -= h.rate * float64(s.now-h.since)
			if h.remaining < 0 {
				h.remaining = 0
			}
		}
		h.since = s.now
		h.rate = rate
		s.postTransferDone(h, trace.Ticks(math.Ceil(h.remaining/rate)))
	}
}

// startPeriodic puts an app's head transfer in service under the fixed
// periodic schedule: its bytes cross at full bandwidth, but only during
// the app's own windows, so the completion lands after skipping the
// phases owned by other apps. since/rate mark the transfer in service so
// a blackout can bank its in-window progress.
func (s *Simulator) startPeriodic(x *transfer) {
	x.since, x.rate = s.now, s.backbone.bw
	s.postTransferDone(x, s.backbone.periodicDelay(x.app, s.now, crossTicks(int64(math.Ceil(x.remaining)), s.backbone.bw)))
}

// periodicDelay returns how long after now a transfer needing `need`
// in-window ticks completes, given app's window [app*W, (app+1)*W) of
// each period.
func (bb *backbone) periodicDelay(app int32, now trace.Ticks, need trace.Ticks) trace.Ticks {
	if need <= 0 {
		return 0
	}
	W, P := bb.window, bb.period
	winStart := trace.Ticks(app) * W
	t := now
	pos := t % P
	switch {
	case pos < winStart:
		t += winStart - pos
		pos = winStart
	case pos >= winStart+W:
		t += P - pos + winStart
		pos = winStart
	}
	avail := winStart + W - pos
	if need <= avail {
		return t + need - now
	}
	need -= avail
	t += avail // at the window's end
	full := need / W
	rem := need % W
	if rem == 0 {
		full--
		rem = W
	}
	return t + (P - W) + full*P + rem - now
}

// inWindowTicks returns how much of [from, to) falls inside app's
// periodic windows — the time a periodic head transfer actually moved
// bytes, which is what a blackout must bank. Full periods contribute one
// window each; the sub-period remainder intersects at most two
// occurrences of the window.
func (bb *backbone) inWindowTicks(app int32, from, to trace.Ticks) trace.Ticks {
	if to <= from {
		return 0
	}
	W, P := bb.window, bb.period
	winStart := trace.Ticks(app) * W
	total := (to - from) / P * W
	a0 := from % P
	a1 := a0 + (to-from)%P
	total += tickOverlap(a0, a1, winStart, winStart+W)
	total += tickOverlap(a0, a1, winStart+P, winStart+W+P)
	return total
}

// tickOverlap returns the length of the intersection of [a0, a1) and
// [b0, b1).
func tickOverlap(a0, a1, b0, b1 trace.Ticks) trace.Ticks {
	if b0 > a0 {
		a0 = b0
	}
	if b1 < a1 {
		a1 = b1
	}
	if a1 > a0 {
		return a1 - a0
	}
	return 0
}

// bbDone completes a transfer crossing (evBackboneDone). Stale events —
// superseded by a fair-share epoch repost or a recycled transfer — are
// dropped by gen mismatch.
func (s *Simulator) bbDone(x *transfer, gen uint32) {
	if x.gen != gen {
		return
	}
	bb := s.backbone
	a := &bb.apps[x.app]
	wait := (s.now - x.enq) - x.ideal
	if wait < 0 {
		wait = 0
	}
	a.transfers++
	a.bytes += x.bytes
	a.busyTicks += x.ideal
	a.waitTicks += wait
	if x.sync {
		a.syncWaitTicks += wait
	}
	bb.outstanding--
	done := x.done

	switch bb.sched {
	case BackboneFIFO:
		bb.fifoHead = x.next
		if bb.fifoHead == nil {
			bb.fifoTail = nil
		} else {
			h := bb.fifoHead
			h.since, h.rate = s.now, bb.bw
			s.postTransferDone(h, h.ideal)
		}
	case BackboneFairShare:
		a.head = x.next
		if a.head == nil {
			a.tail = nil
			a.active = false
			bb.active--
			if bb.active > 0 {
				s.bbEpoch() // departing app's share redistributes
			}
		} else {
			// Successor starts at the current rate; no epoch — the
			// active-app count (and thus everyone's rate) is unchanged.
			h := a.head
			h.since = s.now
			h.rate = bb.bw / float64(bb.active)
			s.postTransferDone(h, trace.Ticks(math.Ceil(h.remaining/h.rate)))
		}
	case BackbonePeriodic:
		a.head = x.next
		if a.head == nil {
			a.tail = nil
		} else {
			s.startPeriodic(a.head)
		}
	}
	s.freeTransfer(x)
	s.post(s.disk.interrupt, done)
}

// finishVolumeAccess fires a request's completion after its volume leg:
// straight to the interrupt when the backbone is off (byte-identical to
// the pre-backbone engine), through a backbone crossing otherwise.
// wait is the remaining volume service time from now. Note the wait==0
// path enters the backbone at the completion tick itself.
func (s *Simulator) finishVolumeAccess(wait trace.Ticks, size int64, tag physOp, done event) {
	if s.backbone == nil || size <= 0 {
		s.post(wait+s.disk.interrupt, done)
		return
	}
	x := s.newTransfer(size, tag, done)
	if wait == 0 {
		s.bbEnqueue(x)
		return
	}
	s.post(wait, event{kind: evBackboneXfer, x: x})
}

// --- burst buffer -----------------------------------------------------

// drainEntry is one absorbed write waiting to drain from the burst
// buffer to the volume array. Pooled like transfers.
type drainEntry struct {
	file     uint32
	off      int64
	size     int64
	tag      physOp
	next     *drainEntry
	freeNext *drainEntry
}

// burstBuffer absorbs volume-bound writes at backbone speed and drains
// them to the volume array in the background at its own bandwidth — the
// burst-absorbing tier modern parallel I/O systems put between the
// compute fabric and the parallel file system.
type burstBuffer struct {
	capacity  int64
	used      int64
	drainRate float64 // bytes per tick
	draining  bool

	head, tail *drainEntry

	absorbed, absorbedBytes int64
	bypassed, bypassedBytes int64
	drains, drainedBytes    int64
	peak                    int64
}

func newBurstBuffer(cfg *Config) *burstBuffer {
	return &burstBuffer{
		capacity:  cfg.BurstBufferMB << 20,
		drainRate: cfg.BurstDrainMBps * 1e6 / float64(trace.TicksPerSecond),
	}
}

func (s *Simulator) newDrainEntry(file uint32, off, size int64, tag physOp) *drainEntry {
	e := s.drainFree
	if e != nil {
		s.drainFree = e.freeNext
		e.freeNext = nil
	} else {
		e = &drainEntry{}
	}
	e.file, e.off, e.size, e.tag, e.next = file, off, size, tag, nil
	return e
}

func (s *Simulator) freeDrainEntry(e *drainEntry) {
	e.next = nil
	e.freeNext = s.drainFree
	s.drainFree = e
}

// burstAbsorb accepts one volume-bound write into the buffer when it
// fits, completing the write at backbone speed (no volume service) and
// queueing a background drain. It reports false — caller proceeds to
// the volume array — when the write does not fit.
func (s *Simulator) burstAbsorb(file uint32, off, size int64, tag physOp, done event) bool {
	b := s.burst
	if b.used+size > b.capacity {
		b.bypassed++
		b.bypassedBytes += size
		return false
	}
	b.used += size
	if b.used > b.peak {
		b.peak = b.used
	}
	b.absorbed++
	b.absorbedBytes += size
	s.finishVolumeAccess(0, size, tag, done)
	e := s.newDrainEntry(file, off, size, tag)
	if b.tail == nil {
		b.head = e
	} else {
		b.tail.next = e
	}
	b.tail = e
	s.burstKick()
	return true
}

// burstKick starts the next background drain if none is running. Drains
// are serialized at the buffer's drain bandwidth; each drained span is
// then written to the volume array as background work (fire-and-forget,
// off the backbone — the buffer sits behind it).
func (s *Simulator) burstKick() {
	b := s.burst
	if b.draining || b.head == nil {
		return
	}
	b.draining = true
	s.post(crossTicks(b.head.size, b.drainRate), event{kind: evBurstDrain})
}

// burstDrainDone retires the head drain (evBurstDrain): the buffer space
// frees up, the span is written to the volume array, and the next drain
// starts.
func (s *Simulator) burstDrainDone() {
	b := s.burst
	e := b.head
	b.head = e.next
	if b.head == nil {
		b.tail = nil
	}
	b.used -= e.size
	b.drains++
	b.drainedBytes += e.size
	b.draining = false
	s.volumeAccess(e.file, e.off, e.size, true, e.tag, event{kind: evNop}, false)
	s.freeDrainEntry(e)
	s.burstKick()
}

// --- result assembly --------------------------------------------------

// backboneStats assembles the run's BackboneStats. Aggregates are sums
// of the per-app tick counters, so per-app entries sum exactly to the
// aggregate.
func (bb *backbone) stats() *BackboneStats {
	out := &BackboneStats{
		MaxQueue: bb.maxQueue,
		PerApp:   make([]BackboneAppStats, len(bb.apps)),
	}
	for i := range bb.apps {
		a := &bb.apps[i]
		out.PerApp[i] = BackboneAppStats{
			PID:       a.pid,
			Transfers: a.transfers,
			Bytes:     a.bytes,
			BusySec:   a.busyTicks.Seconds(),
			WaitSec:   a.waitTicks.Seconds(),
		}
		out.Transfers += a.transfers
		out.Bytes += a.bytes
		out.BusySec += a.busyTicks.Seconds()
		out.WaitSec += a.waitTicks.Seconds()
	}
	sort.Slice(out.PerApp, func(a, b int) bool { return out.PerApp[a].PID < out.PerApp[b].PID })
	return out
}

// burstStats assembles the run's BurstStats.
func (b *burstBuffer) stats() *BurstStats {
	return &BurstStats{
		AbsorbedWrites: b.absorbed,
		AbsorbedBytes:  b.absorbedBytes,
		BypassedWrites: b.bypassed,
		BypassedBytes:  b.bypassedBytes,
		Drains:         b.drains,
		DrainedBytes:   b.drainedBytes,
		PeakBytes:      b.peak,
	}
}
