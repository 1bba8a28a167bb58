package sim

import (
	"context"

	"iotrace/internal/trace"
)

// evKind discriminates the simulator's event variants. Events are plain
// values dispatched by kind; their operands travel in fixed fields, so the
// hot loop never boxes and never allocates closures.
type evKind uint8

const (
	evNop          evKind = iota // completion nobody waits on (async bypass)
	evRunSlice                   // a dispatched process starts its quantum
	evSliceEnd                   // quantum expiry or arrival at the next action
	evDoIO                       // file-system code done; request hits the cache
	evAdvanceRun                 // hit/absorb cost paid; consume record, keep CPU
	evFlushTimer                 // delayed-write aging timer fired
	evFetchDone                  // disk read done; fill blocks, resume waiters
	evWaitDone                   // bypass read done; notify one ioWait
	evWake                       // synchronous bypass write done; wake the writer
	evFlushDone                  // flusher write-back done; clean the run (vol = op slot)
	evVolDone                    // a volume finished its in-service segment (vol = volume)
	evBackboneXfer               // volume leg done; transfer enters the shared backbone
	evBackboneDone               // backbone crossing complete (tick = transfer gen)
	evBurstDrain                 // burst buffer's head drain finished
	evFaultStart                 // a fault-plan event begins (vol = plan index)
	evFaultEnd                   // a fault-plan event ends (vol = plan index)
	evRetryFire                  // a held request's backoff timer (tick = op gen)
)

// event is one scheduled simulator action. Ties on time break by sequence
// number, making runs fully deterministic — including multi-volume runs,
// where a request's completion is posted once at the slowest segment's
// finish time (disk.go), so sharding adds volumes without adding event
// kinds or altering tie-break order.
type event struct {
	at   trace.Ticks
	seq  uint64
	kind evKind
	vol  int32 // evVolDone: volume index; evFlushDone: flush-op slot
	p    *proc
	r    *trace.Record
	f    *fetch
	w    *ioWait
	x    *transfer
	ro   *retryOp
	tick trace.Ticks // evSliceEnd: slice length; evBackboneDone/evRetryFire: gen
}

// eventHeap is a 4-ary min-heap of value events keyed on (at, seq). The
// wider node cuts tree depth (and swap traffic) versus a binary heap, and
// the flat []event backing stores means zero allocation per push/pop once
// the run's high-water mark is reached.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

// peek returns a pointer to the earliest event without removing it.
// The pointer is invalidated by the next push or pop.
func (h *eventHeap) peek() *event { return &h.ev[0] }

func evBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push and popInto sift a hole rather than swapping: each level copies
// one event instead of three, and the moving event is written once, at
// its final slot. Every (at, seq) is unique, so the pop order is the
// one a swapping sift gives.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !evBefore(&e, &h.ev[parent]) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = e
}

// popInto removes the earliest event into *top.
func (h *eventHeap) popInto(top *event) {
	*top = h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = event{} // drop stale pointers so recycled objects can free
	h.ev = h.ev[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if evBefore(&h.ev[c], &h.ev[min]) {
				min = c
			}
		}
		if !evBefore(&h.ev[min], &last) {
			break
		}
		h.ev[i] = h.ev[min]
		i = min
	}
	h.ev[i] = last
}

func (h *eventHeap) pop() event {
	var e event
	h.popInto(&e)
	return e
}

// post queues ev to fire dt ticks from now.
func (s *Simulator) post(dt trace.Ticks, ev event) {
	if dt < 0 {
		dt = 0
	}
	s.seq++
	ev.at = s.now + dt
	ev.seq = s.seq
	s.events.push(ev)
}

// dispatch1 executes one event.
func (s *Simulator) dispatch1(e *event) {
	switch e.kind {
	case evRunSlice:
		s.runSlice(e.p)
	case evSliceEnd:
		s.sliceEnd(e.p, e.tick)
	case evDoIO:
		s.doIO(e.p, e.r)
	case evAdvanceRun:
		s.advance(e.p)
		if s.faults != nil {
			// A write absorbed by the cache (or a hit) is durable enough
			// to checkpoint the moment its record is consumed.
			e.p.commitCkpt()
		}
		s.runSlice(e.p)
	case evFlushTimer:
		s.flushTimer = false
		s.kickFlusher()
	case evFetchDone:
		s.completeFetch(e.f)
	case evWaitDone:
		s.waitDone(e.w)
	case evWake:
		s.wake(e.p)
	case evFlushDone:
		s.completeFlush(int(e.vol))
	case evVolDone:
		s.volDone(int(e.vol), uint32(e.tick))
	case evBackboneXfer:
		s.bbEnqueue(e.x)
	case evBackboneDone:
		s.bbDone(e.x, uint32(e.tick))
	case evBurstDrain:
		s.burstDrainDone()
	case evFaultStart:
		s.faultStart(int(e.vol))
	case evFaultEnd:
		s.faultEnd(int(e.vol))
	case evRetryFire:
		s.retryFire(e.ro, uint32(e.tick))
	case evNop:
	}
}

// runEvents drains the event queue. It returns false if the run failed
// (streaming-source error, context cancellation) or the queue empties
// while processes are still unfinished (a stall, indicating a simulator
// bug or an unsatisfiable configuration).
func (s *Simulator) runEvents(ctx context.Context) bool {
	const ctxCheckInterval = 1 << 12
	n := 0
	var e event
	for s.err == nil && s.events.len() > 0 {
		if n++; n%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				s.fail(err)
				return false
			}
		}
		s.events.popInto(&e)
		s.now = e.at
		s.dispatch1(&e)
	}
	if s.err != nil {
		return false
	}
	for _, p := range s.procs {
		if !p.done {
			return false
		}
	}
	return true
}
