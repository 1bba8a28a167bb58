package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"iotrace/internal/trace"
)

// This file is the fault-injection and degraded-operation subsystem: a
// deterministic schedule of component failures threaded through the
// event engine. The paper characterizes I/O on hardware assumed healthy;
// at production scale storage is routinely degraded (Cloud's component-
// failure problem list), and checkpoint-dominated write traffic (Godoy
// et al.) is exactly the traffic most exposed. A FaultPlan schedules
// three failure modes as first-class heap events:
//
//   - volume outages (FaultVolDown): the volume rejects new requests for
//     the outage; arrivals wait in a pooled retry queue with exponential
//     backoff and a hard timeout, the deferred-scheduler's in-service
//     segment freezes and resumes where it left off, and the flusher
//     routes around the volume until recovery drains the backlog;
//   - sustained slowdowns (FaultVolSlow): every access on the volume
//     pays a service-time multiplier — the degraded-but-alive disk;
//   - backbone blackouts (FaultBackboneDown): the shared backbone stops
//     moving bytes; in-flight transfers bank their progress and resume
//     at recovery, arrivals queue without service.
//
// Requests that exhaust RetryTimeoutTicks fail unrecoverably. A process
// blocked on such a request rolls back to its last completed checkpoint
// write and replays from there (restartProc); background work is
// dropped and counted. With Config.Faults nil the subsystem is compiled
// out of the event flow entirely — no fault state is consulted on any
// hot path — and every run replays byte-identically to the fault-free
// engine (TestFaultsOffGoldenEquivalence).

// FaultKind discriminates the failure modes a FaultEvent injects.
type FaultKind int

const (
	// FaultVolDown takes one volume offline for the event's duration:
	// new requests touching it are held for retry, the flusher skips it,
	// and its in-service segment (deferred schedulers) freezes until
	// recovery. The closed-form FCFS path commits departure times at
	// arrival, so an outage gates FCFS arrivals only — in-flight FCFS
	// requests complete as scheduled.
	FaultVolDown FaultKind = iota

	// FaultVolSlow multiplies one volume's service times (seek and
	// transfer) by Factor for the event's duration — the degraded spindle
	// that still answers, just slowly. Overlapping slow events compound
	// multiplicatively.
	FaultVolSlow

	// FaultBackboneDown blacks out the shared backbone: transfers stop
	// progressing and arrivals queue unserved until the blackout lifts.
	// A no-op when no backbone is configured (there is no shared path to
	// lose), though the interval still counts as degraded time.
	FaultBackboneDown
)

func (k FaultKind) String() string {
	switch k {
	case FaultVolSlow:
		return "slow"
	case FaultBackboneDown:
		return "backbone-down"
	default:
		return "down"
	}
}

// FaultEvent is one scheduled failure: Kind's failure mode over
// [At, At+Dur). Vol selects the volume for the volume kinds and is
// applied modulo Config.NumVolumes, so one plan remains valid across
// every width of a volume sweep; it is ignored for backbone events.
// Factor is FaultVolSlow's service-time multiplier (> 1).
type FaultEvent struct {
	Kind   FaultKind
	Vol    int
	At     trace.Ticks
	Dur    trace.Ticks
	Factor float64
}

// FaultPlan is a deterministic schedule of fault events. Plans are part
// of the configuration, not the random state: the same plan over the
// same trace replays bit-identically, across runs and across sweep
// worker counts.
type FaultPlan struct {
	Events []FaultEvent
}

// faultTicks formats a plan time compactly: whole seconds as "<n>s",
// anything else as raw ticks "<n>t". Both forms parse back exactly, so
// String/ParseFaultPlan round-trip losslessly (FuzzParseFaultPlan).
func faultTicks(t trace.Ticks) string {
	if t%trace.TicksPerSecond == 0 {
		return strconv.FormatInt(int64(t/trace.TicksPerSecond), 10) + "s"
	}
	return strconv.FormatInt(int64(t), 10) + "t"
}

// parseFaultTicks parses "<seconds>s" (decimal allowed) or "<ticks>t".
func parseFaultTicks(s string) (trace.Ticks, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("sim: fault time %q (want e.g. 200s or 12345t)", s)
	}
	num, unit := s[:len(s)-1], s[len(s)-1]
	switch unit {
	case 't':
		n, err := strconv.ParseInt(num, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("sim: fault time %q", s)
		}
		return trace.Ticks(n), nil
	case 's':
		f, err := strconv.ParseFloat(num, 64)
		// The range guard keeps the float->tick conversion inside int64.
		if err != nil || math.IsNaN(f) || f < 0 || f > 1e13 {
			return 0, fmt.Errorf("sim: fault time %q", s)
		}
		return trace.Ticks(f*float64(trace.TicksPerSecond) + 0.5), nil
	}
	return 0, fmt.Errorf("sim: fault time %q (want an s or t suffix)", s)
}

// String renders the plan in the compact spec ParseFaultPlan accepts,
// e.g. "vol1:down@200s+30s,vol0:slow2x@500s+60s,backbone:down@800s+10s".
func (p *FaultPlan) String() string {
	var b strings.Builder
	for i, e := range p.Events {
		if i > 0 {
			b.WriteByte(',')
		}
		switch e.Kind {
		case FaultBackboneDown:
			b.WriteString("backbone:down")
		case FaultVolSlow:
			fmt.Fprintf(&b, "vol%d:slow%sx", e.Vol, strconv.FormatFloat(e.Factor, 'g', -1, 64))
		default:
			fmt.Fprintf(&b, "vol%d:down", e.Vol)
		}
		b.WriteByte('@')
		b.WriteString(faultTicks(e.At))
		b.WriteByte('+')
		b.WriteString(faultTicks(e.Dur))
	}
	return b.String()
}

// ParseFaultPlan parses a comma-separated fault spec. Each event is
// <target>:<kind>@<start>+<duration> where target is volN or backbone,
// kind is down or slow<factor>x, and times carry an s (seconds) or t
// (ticks) suffix. Parsed plans re-parse from their String form to the
// same plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("sim: empty fault plan")
	}
	p := &FaultPlan{}
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		target, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("sim: fault %q (want target:kind@start+duration)", spec)
		}
		kindStr, when, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("sim: fault %q has no @start", spec)
		}
		atStr, durStr, ok := strings.Cut(when, "+")
		if !ok {
			return nil, fmt.Errorf("sim: fault %q has no +duration", spec)
		}
		at, err := parseFaultTicks(atStr)
		if err != nil {
			return nil, err
		}
		dur, err := parseFaultTicks(durStr)
		if err != nil {
			return nil, err
		}
		e := FaultEvent{At: at, Dur: dur}
		switch {
		case target == "backbone":
			if kindStr != "down" {
				return nil, fmt.Errorf("sim: backbone fault %q (only down is modeled)", kindStr)
			}
			e.Kind = FaultBackboneDown
		case strings.HasPrefix(target, "vol"):
			vol, err := strconv.Atoi(target[3:])
			if err != nil || vol < 0 {
				return nil, fmt.Errorf("sim: fault volume %q", target)
			}
			e.Vol = vol
			switch {
			case kindStr == "down":
				e.Kind = FaultVolDown
			case strings.HasPrefix(kindStr, "slow") && strings.HasSuffix(kindStr, "x"):
				f, err := strconv.ParseFloat(kindStr[4:len(kindStr)-1], 64)
				if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 1 {
					return nil, fmt.Errorf("sim: slow factor %q (want a multiplier > 1)", kindStr)
				}
				e.Kind, e.Factor = FaultVolSlow, f
			default:
				return nil, fmt.Errorf("sim: fault kind %q (want down or slow<f>x)", kindStr)
			}
		default:
			return nil, fmt.Errorf("sim: fault target %q (want volN or backbone)", target)
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

// validate checks the plan against a configuration.
func (p *FaultPlan) validate() error {
	for i, e := range p.Events {
		if e.At < 0 || e.Dur <= 0 {
			return fmt.Errorf("sim: fault %d: window @%v+%v (want start >= 0, duration > 0)", i, e.At, e.Dur)
		}
		switch e.Kind {
		case FaultVolDown:
			if e.Vol < 0 {
				return fmt.Errorf("sim: fault %d: volume %d", i, e.Vol)
			}
		case FaultVolSlow:
			if e.Vol < 0 {
				return fmt.Errorf("sim: fault %d: volume %d", i, e.Vol)
			}
			if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor <= 1 {
				return fmt.Errorf("sim: fault %d: slow factor %g (want > 1)", i, e.Factor)
			}
		case FaultBackboneDown:
		default:
			return fmt.Errorf("sim: fault %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// retryOp is one request held because a volume it touches is down.
// Pooled through the fault state's free-list, so the degraded steady
// state allocates nothing; gen invalidates the backoff timer of an op
// that recovery already drained.
type retryOp struct {
	file        uint32
	off, size   int64
	write       bool
	viaBackbone bool
	tag         physOp
	done        event
	enq         trace.Ticks // hold time; the RetryTimeoutTicks clock
	backoff     trace.Ticks // next timer interval (doubles per attempt)
	gen         uint32

	prev, next *retryOp // hold-queue links (FIFO, O(1) unlink)
	freeNext   *retryOp
}

// faultState is the simulator's per-run fault machinery. nil on the
// Simulator (the default) keeps every fault check off the hot paths.
type faultState struct {
	plan   *FaultPlan
	active []bool // per plan event: inside its [At, At+Dur) window

	bbDown int // active backbone blackouts

	head, tail *retryOp // held requests, FIFO
	free       *retryOp
	held       int
	maxHeld    int

	retried       int64 // requests re-issued after a hold
	unrecoverable int64 // requests that exhausted RetryTimeoutTicks
	lostWrites    int64 // unrecoverable background/async work, dropped
}

func newFaultState(plan *FaultPlan) *faultState {
	return &faultState{plan: plan, active: make([]bool, len(plan.Events))}
}

// scheduleFaults posts every plan event's start onto the heap. Called
// once at Run start; with no plan nothing is posted and the event flow
// is untouched.
func (s *Simulator) scheduleFaults() {
	for i, e := range s.faults.plan.Events {
		s.post(e.At, event{kind: evFaultStart, vol: int32(i)})
	}
}

// faultVol maps a plan event's volume index onto the array.
func (s *Simulator) faultVol(e *FaultEvent) int {
	return e.Vol % len(s.disk.vols)
}

// faultStart applies plan event i's failure and schedules its recovery.
func (s *Simulator) faultStart(i int) {
	fs := s.faults
	e := &fs.plan.Events[i]
	fs.active[i] = true
	switch e.Kind {
	case FaultVolDown:
		vi := s.faultVol(e)
		v := &s.disk.vols[vi]
		v.downCnt++
		if v.downCnt == 1 {
			s.freezeVolume(vi)
		}
	case FaultVolSlow:
		s.recomputeSlow(s.faultVol(e))
	case FaultBackboneDown:
		fs.bbDown++
		if fs.bbDown == 1 && s.backbone != nil {
			s.backboneBlackout()
		}
	}
	s.post(e.Dur, event{kind: evFaultEnd, vol: int32(i)})
}

// faultEnd lifts plan event i's failure and resumes degraded work:
// frozen service, held requests, the flusher's backlog.
func (s *Simulator) faultEnd(i int) {
	fs := s.faults
	e := &fs.plan.Events[i]
	fs.active[i] = false
	switch e.Kind {
	case FaultVolDown:
		vi := s.faultVol(e)
		v := &s.disk.vols[vi]
		v.downCnt--
		if v.downCnt == 0 {
			s.thawVolume(vi)
			s.drainRetries()
			s.kickFlusher()
		}
	case FaultVolSlow:
		s.recomputeSlow(s.faultVol(e))
	case FaultBackboneDown:
		fs.bbDown--
		if fs.bbDown == 0 && s.backbone != nil {
			s.backboneRestore()
		}
	}
}

// recomputeSlow sets volume vi's service-time multiplier to the exact
// product of its active slow events — recomputed from the plan at every
// transition rather than divided back out, so overlapping faults never
// accumulate float drift. 0 means healthy (accessTime skips the
// multiply entirely).
func (s *Simulator) recomputeSlow(vi int) {
	prod, n := 1.0, 0
	for j := range s.faults.plan.Events {
		e := &s.faults.plan.Events[j]
		if s.faults.active[j] && e.Kind == FaultVolSlow && s.faultVol(e) == vi {
			prod *= e.Factor
			n++
		}
	}
	if n == 0 {
		s.disk.vols[vi].slow = 0
	} else {
		s.disk.vols[vi].slow = prod
	}
}

// freezeVolume suspends volume vi's in-service segment at an outage
// start: the pending evVolDone goes stale via the gen bump and the
// unserved remainder is kept for the thaw. Queued segments simply wait.
func (s *Simulator) freezeVolume(vi int) {
	v := &s.disk.vols[vi]
	if !v.inService {
		return
	}
	v.frozen = v.curDone - s.now
	if v.frozen < 0 {
		v.frozen = 0
	}
	v.gen++
}

// thawVolume resumes volume vi at recovery: the frozen segment's
// remainder is rescheduled, or the queue re-dispatches if the head was
// idle when the outage hit.
func (s *Simulator) thawVolume(vi int) {
	v := &s.disk.vols[vi]
	if v.inService {
		v.curDone = s.now + v.frozen
		s.post(v.frozen, event{kind: evVolDone, vol: int32(vi), tick: trace.Ticks(v.gen)})
		v.frozen = 0
		return
	}
	if len(v.queue) > 0 {
		s.volDispatch(vi)
	}
}

// anyVolDown reports whether any volume the request touches is down —
// the admission gate every volume access passes when faults are active.
func (s *Simulator) anyVolDown(fileID uint32, off, size int64) bool {
	d := s.disk
	if len(d.vols) == 1 {
		return d.vols[0].downCnt > 0
	}
	for _, seg := range d.split(fileID, off, size) {
		if d.vols[seg.vol].downCnt > 0 {
			return true
		}
	}
	return false
}

// holdForRetry parks a request whose volume is down: it joins the FIFO
// hold queue and arms a backoff timer (clamped to the retry deadline).
// Ops come from the free-list, so the degraded steady state allocates
// nothing.
func (s *Simulator) holdForRetry(fileID uint32, off, size int64, write bool, tag physOp, done event, viaBackbone bool) {
	fs := s.faults
	ro := fs.free
	if ro != nil {
		fs.free = ro.freeNext
		ro.freeNext = nil
	} else {
		ro = &retryOp{}
	}
	ro.file, ro.off, ro.size = fileID, off, size
	ro.write, ro.viaBackbone = write, viaBackbone
	ro.tag, ro.done, ro.enq = tag, done, s.now
	ro.backoff = s.cfg.RetryBackoffTicks
	ro.prev, ro.next = fs.tail, nil
	if fs.tail == nil {
		fs.head = ro
	} else {
		fs.tail.next = ro
	}
	fs.tail = ro
	fs.held++
	if fs.held > fs.maxHeld {
		fs.maxHeld = fs.held
	}
	s.postRetryTimer(ro, ro.backoff)
}

// postRetryTimer arms ro's next attempt dt out, clamped so the timer
// lands exactly on the retry deadline rather than past it.
func (s *Simulator) postRetryTimer(ro *retryOp, dt trace.Ticks) {
	if deadline := ro.enq + s.cfg.RetryTimeoutTicks; s.now+dt > deadline {
		dt = deadline - s.now
		if dt < 0 {
			dt = 0
		}
	}
	s.post(dt, event{kind: evRetryFire, ro: ro, tick: trace.Ticks(ro.gen)})
}

// unlink removes ro from the hold queue.
func (fs *faultState) unlink(ro *retryOp) {
	if ro.prev != nil {
		ro.prev.next = ro.next
	} else {
		fs.head = ro.next
	}
	if ro.next != nil {
		ro.next.prev = ro.prev
	} else {
		fs.tail = ro.prev
	}
	ro.prev, ro.next = nil, nil
	fs.held--
}

// freeRetryOp recycles ro; the gen bump invalidates any timer still in
// the heap.
func (s *Simulator) freeRetryOp(ro *retryOp) {
	ro.gen++
	ro.done = event{}
	ro.freeNext = s.faults.free
	s.faults.free = ro
}

// retryFire is ro's backoff timer (evRetryFire). Stale timers —
// recovery already drained the op — are dropped by gen mismatch. An op
// still blocked at its deadline fails unrecoverably; one whose volumes
// recovered re-issues; otherwise the attempt reposts at doubled
// backoff.
func (s *Simulator) retryFire(ro *retryOp, gen uint32) {
	if ro.gen != gen {
		return
	}
	if !s.anyVolDown(ro.file, ro.off, ro.size) {
		s.faults.unlink(ro)
		s.reissue(ro)
		return
	}
	if s.now-ro.enq >= s.cfg.RetryTimeoutTicks {
		s.faults.unlink(ro)
		s.faults.unrecoverable++
		s.failRequest(ro)
		s.freeRetryOp(ro)
		return
	}
	ro.backoff *= 2
	s.postRetryTimer(ro, ro.backoff)
}

// drainRetries re-issues every held request whose volumes are all back
// up, in hold order. Called at each volume recovery.
func (s *Simulator) drainRetries() {
	ro := s.faults.head
	for ro != nil {
		next := ro.next
		if !s.anyVolDown(ro.file, ro.off, ro.size) {
			s.faults.unlink(ro)
			s.reissue(ro)
		}
		ro = next
	}
}

// reissue resubmits a held request to the volume array and recycles the
// op.
func (s *Simulator) reissue(ro *retryOp) {
	s.faults.retried++
	s.noteProcRetry(ro.tag.pid)
	s.volumeAccess(ro.file, ro.off, ro.size, ro.write, ro.tag, ro.done, ro.viaBackbone)
	s.freeRetryOp(ro)
}

// noteProcRetry attributes one retry to the owning process.
func (s *Simulator) noteProcRetry(pid uint32) {
	for _, p := range s.procs {
		if p.pid == pid {
			p.retried++
			return
		}
	}
}

// failRequest handles an unrecoverable request by what its completion
// event would have done: a process blocked on it restarts from its last
// checkpoint; background and async work is dropped and counted.
func (s *Simulator) failRequest(ro *retryOp) {
	done := ro.done
	switch done.kind {
	case evWake:
		// A synchronous bypass write the process is blocked on.
		s.restartProc(done.p)
	case evWaitDone:
		// One leg of a blocked read; the wait fails when its last leg
		// settles (other legs may still be in flight).
		done.w.failed = true
		s.waitDone(done.w)
	case evFetchDone:
		s.failFetch(done.f)
	case evFlushDone:
		// Defensive only: the flusher never issues onto a down volume,
		// but complete the run so its blocks and volumes cannot strand.
		s.faults.lostWrites++
		s.completeFlush(int(done.vol))
	default:
		// evNop: an async request or a burst-buffer drain nobody waits
		// on. The write's data is lost; the simulation only counts it.
		s.faults.lostWrites++
	}
}

// failFetch aborts an in-flight demand fetch that could not reach its
// volume: pending marks clear, the reservation releases (no blocks were
// inserted), and every waiter fails — their processes restart once
// their remaining legs settle.
func (s *Simulator) failFetch(f *fetch) {
	for _, k := range f.keys {
		s.cache.clearPending(k)
	}
	s.cache.unreserve(len(f.keys))
	for _, w := range f.waiters {
		w.failed = true
		s.waitDone(w)
	}
	f.keys, f.waiters = f.keys[:0], f.waiters[:0]
	f.freeNext = s.fetchFree
	s.fetchFree = f
	s.trySpaceWaiters()
}

// --- checkpoint / restart ---------------------------------------------

// procCkpt is a process's rollback point: the feed position and compute
// state just after its last completed checkpoint write. Snapshots are
// plain value copies — the feed's records are immutable — so capture
// and restore never allocate.
type procCkpt struct {
	ri          int
	cur, nxt    *trace.Record
	lastCPU     trace.Ticks
	computeLeft trace.Ticks
	cpuUsed     trace.Ticks
}

// snapshot captures p's current rollback point (call just after
// advance() has consumed a record and set up the following burst).
func (p *proc) snapshot() procCkpt {
	f := p.feed
	return procCkpt{
		ri: f.ri, cur: f.cur, nxt: f.nxt, lastCPU: f.lastCPU,
		computeLeft: p.computeLeft, cpuUsed: p.cpuUsed,
	}
}

// noteWriteAdvanced stages a checkpoint candidate when a synchronous
// write record is consumed. Write-behind absorptions are durable the
// moment they advance (the flusher will land them); write-through waits
// for the disk, so the candidate commits only when the writer wakes —
// a write that fails instead never becomes a rollback point.
func (s *Simulator) noteWriteAdvanced(p *proc, r *trace.Record) {
	if !r.Type.IsWrite() || r.Type.IsAsync() {
		return
	}
	p.ckptPend = p.snapshot()
	p.ckptStaged = true
}

// commitCkpt promotes the staged checkpoint, if any.
func (p *proc) commitCkpt() {
	if p.ckptStaged {
		p.ckpt = p.ckptPend
		p.ckptStaged = false
	}
}

// restartProc rolls p back to its last committed checkpoint and readies
// it to replay. The CPU work since the checkpoint is the restart's
// cost: it stays in the machine's busy accounting (those cycles burned)
// but is rolled out of the process's own cpuUsed and surfaced as
// LostTicks. Streamed feeds cannot rewind, so a restart there fails the
// run.
func (s *Simulator) restartProc(p *proc) {
	if p.all == nil {
		s.fail(fmt.Errorf("sim: process %s hit an unrecoverable I/O fault and cannot restart (streamed traces cannot rewind; use AddProcess)", p.name))
		return
	}
	ck := &p.ckpt
	p.restarts++
	if lost := p.cpuUsed - ck.cpuUsed; lost > 0 {
		p.lostTicks += lost
	}
	p.ckptStaged = false
	f := p.feed
	f.recs = p.all // close() nils recs at trace end; replay restores it
	f.ri, f.cur, f.nxt, f.lastCPU = ck.ri, ck.cur, ck.nxt, ck.lastCPU
	p.cpuUsed = ck.cpuUsed
	p.computeLeft = ck.computeLeft
	s.wake(p)
}

// --- backbone blackout ------------------------------------------------

// backboneBlackout stops the shared backbone: every in-service transfer
// banks the bytes it moved so far (periodic heads bank only in-window
// progress) and its completion goes stale; arrivals during the blackout
// queue without service (bbEnqueue checks bb.down).
func (s *Simulator) backboneBlackout() {
	bb := s.backbone
	bb.down = true
	bank := func(x *transfer, progressed float64) {
		x.remaining -= progressed
		if x.remaining < 0 {
			x.remaining = 0
		}
		x.rate = 0
		x.gen++ // stale the posted completion
	}
	switch bb.sched {
	case BackboneFIFO:
		if h := bb.fifoHead; h != nil && h.rate > 0 {
			bank(h, h.rate*float64(s.now-h.since))
		}
	case BackboneFairShare:
		for i := range bb.apps {
			a := &bb.apps[i]
			if !a.active {
				continue
			}
			if h := a.head; h.rate > 0 {
				bank(h, h.rate*float64(s.now-h.since))
			}
			a.active = false
		}
		bb.active = 0
	case BackbonePeriodic:
		for i := range bb.apps {
			if h := bb.apps[i].head; h != nil && h.rate > 0 {
				bank(h, float64(bb.inWindowTicks(h.app, h.since, s.now))*bb.bw)
			}
		}
	}
}

// backboneRestore re-grants the backbone at blackout end: every app's
// head transfer resumes from its banked remainder under the configured
// scheduler's own arbitration.
func (s *Simulator) backboneRestore() {
	bb := s.backbone
	bb.down = false
	switch bb.sched {
	case BackboneFIFO:
		if h := bb.fifoHead; h != nil {
			h.since, h.rate = s.now, bb.bw
			s.postTransferDone(h, trace.Ticks(math.Ceil(h.remaining/bb.bw)))
		}
	case BackboneFairShare:
		for i := range bb.apps {
			if bb.apps[i].head != nil {
				bb.apps[i].active = true
				bb.active++
			}
		}
		if bb.active > 0 {
			s.bbEpoch()
		}
	case BackbonePeriodic:
		for i := range bb.apps {
			if h := bb.apps[i].head; h != nil {
				s.startPeriodic(h)
			}
		}
	}
}

// --- result assembly --------------------------------------------------

// degradedWindow returns how many plan events started within the run
// and the merged wall time during which at least one fault was active,
// both clipped to the run's span.
func (fs *faultState) degradedWindow(wall trace.Ticks) (events int, degraded trace.Ticks) {
	type span struct{ a, b trace.Ticks }
	var spans []span
	for _, e := range fs.plan.Events {
		if e.At >= wall {
			continue
		}
		events++
		end := e.At + e.Dur
		if end > wall {
			end = wall
		}
		spans = append(spans, span{e.At, end})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].a < spans[j].a })
	var cur span
	for i, sp := range spans {
		if i == 0 || sp.a > cur.b {
			degraded += cur.b - cur.a
			cur = sp
			continue
		}
		if sp.b > cur.b {
			cur.b = sp.b
		}
	}
	degraded += cur.b - cur.a
	return events, degraded
}
