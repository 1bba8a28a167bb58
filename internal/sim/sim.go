package sim

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"iotrace/internal/stats"
	"iotrace/internal/trace"
)

// recordFeed supplies one process's data records in order with one-record
// lookahead. Materialized (AddProcess) traces are validated up front and
// served straight from the slice — no per-record indirection; streaming
// (AddProcessSeq) traces go through the pull source, which filters
// comments, validates pid consistency and process-time monotonicity, and
// learns the process's total CPU demand (from the end-comment convention,
// or the last record) by the time the source drains.
type recordFeed struct {
	name string
	cur  *trace.Record                       // record awaiting issue (nil = process exhausted)
	nxt  *trace.Record                       // one-record lookahead
	recs []*trace.Record                     // pre-validated data records (slice feeds)
	ri   int                                 // next index into recs
	pull func() (*trace.Record, error, bool) // streamed feeds
	stop func()                              // releases a pull-based source; nil for slices

	pid     uint32
	started bool
	lastCPU trace.Ticks
	endCmt  trace.Ticks // CPU clock from an end comment, when seen
	endCPU  trace.Ticks // total CPU demand; valid once the source drains
}

// validateRecordBounds rejects records the block index cannot address:
// negative offsets and extents whose end overflows int64. Both the
// materialized (AddProcess) and streamed (refill) paths apply it, so
// every feed admits the same traces.
func validateRecordBounds(name string, r *trace.Record) error {
	if r.Offset < 0 {
		return fmt.Errorf("sim: trace %s has negative offset %d", name, r.Offset)
	}
	if r.Length > 0 && r.Offset+r.Length < r.Offset {
		return fmt.Errorf("sim: trace %s record overflows at offset %d length %d", name, r.Offset, r.Length)
	}
	return nil
}

// refill advances the source until nxt holds the next data record or the
// source is exhausted (at which point endCPU becomes valid).
func (f *recordFeed) refill() error {
	f.nxt = nil
	if f.recs != nil {
		// Slice fast path: records were filtered and validated by
		// AddProcess, so serving one is a bounds check and an index.
		if f.ri < len(f.recs) {
			r := f.recs[f.ri]
			f.ri++
			f.lastCPU = r.ProcessTime
			f.nxt = r
		} else {
			f.close()
		}
		return nil
	}
	for f.pull != nil {
		r, err, ok := f.pull()
		if !ok {
			f.close()
			return nil
		}
		if err != nil {
			f.close()
			return fmt.Errorf("sim: trace %s: %w", f.name, err)
		}
		if r.IsComment() {
			if cpu, _, ok := trace.ParseEndComment(r.CommentText); ok && cpu > f.endCmt {
				f.endCmt = cpu
			}
			continue
		}
		if err := validateRecordBounds(f.name, r); err != nil {
			f.close()
			return err
		}
		if !f.started {
			f.pid = r.ProcessID
			f.started = true
		} else {
			if r.ProcessID != f.pid {
				f.close()
				return fmt.Errorf("sim: trace %s mixes pids %d and %d", f.name, f.pid, r.ProcessID)
			}
			if r.ProcessTime < f.lastCPU {
				f.close()
				return fmt.Errorf("sim: trace %s has non-monotone process time", f.name)
			}
		}
		f.lastCPU = r.ProcessTime
		f.nxt = r
		return nil
	}
	return nil
}

// step consumes the current record and refills the lookahead.
func (f *recordFeed) step() error {
	f.cur = f.nxt
	if f.cur == nil {
		return nil
	}
	return f.refill()
}

// prime positions the feed on the first data record.
func (f *recordFeed) prime() error {
	if err := f.refill(); err != nil {
		return err
	}
	if f.nxt == nil {
		return fmt.Errorf("sim: trace %s has no data records", f.name)
	}
	return f.step()
}

// close releases the source and finalizes the process's CPU demand.
func (f *recordFeed) close() {
	if f.stop != nil {
		f.stop()
		f.stop = nil
	}
	f.pull = nil
	f.recs = nil
	f.endCPU = f.endCmt
	if f.lastCPU > f.endCPU {
		f.endCPU = f.lastCPU
	}
}

// fileEnd records where a process's last access to one file ended, the
// state behind the read-ahead sequentiality test.
type fileEnd struct {
	file uint32
	end  int64
}

// proc is one traced process being replayed.
type proc struct {
	pid  uint32
	name string
	feed *recordFeed
	all  []*trace.Record // materialized data records (nil for streamed procs)

	computeLeft trace.Ticks // CPU time to burn before the next action

	done         bool
	cpu          int // CPU currently running this process (-1 when not running)
	finishAt     trace.Ticks
	cpuUsed      trace.Ticks
	blockedSince trace.Ticks
	blockedTotal trace.Ticks
	blocked      bool

	// fileEnds is the per-file sequentiality table (replaces a per-proc
	// map): these workloads touch tens of files per process, so a linear
	// scan over a compact slice beats a hash per request and never
	// allocates in steady state.
	fileEnds []fileEnd

	// Checkpoint/restart state (fault injection only). ckpt is the last
	// committed rollback point; ckptPend is staged when a synchronous
	// write record is consumed and commits once that write is durable
	// (absorbed, or its disk completion lands).
	ckpt       procCkpt
	ckptPend   procCkpt
	ckptStaged bool
	restarts   int64
	retried    int64
	lostTicks  trace.Ticks
}

// swapLastEnd records that the process's access to file now ends at end
// and returns the previous end (0 on first touch).
func (p *proc) swapLastEnd(file uint32, end int64) int64 {
	fe := p.fileEnds
	for i := range fe {
		if fe[i].file == file {
			old := fe[i].end
			fe[i].end = end
			return old
		}
	}
	p.fileEnds = append(p.fileEnds, fileEnd{file, end})
	return 0
}

// ProcResult reports one process's outcome.
type ProcResult struct {
	PID        uint32
	Name       string
	FinishSec  float64
	CPUSec     float64
	BlockedSec float64

	// Dilation is the application's slowdown attributable to waiting on
	// the shared backbone: FinishSec over what the finish time would
	// have been with those synchronous backbone waits removed. 1 means
	// no congestion delay (always 1 with the backbone off).
	Dilation float64

	// Restarts counts checkpoint rollbacks the process took after
	// unrecoverable I/O faults; LostTicks is the CPU work those
	// rollbacks discarded and replayed; RetriedRequests counts the
	// process's requests that were held by a volume outage and later
	// re-issued. All zero without a FaultPlan.
	Restarts        int64
	LostTicks       trace.Ticks
	RetriedRequests int64
}

// DiskStats reports storage-tier activity aggregated over the whole
// volume array (with NumVolumes == 1, the one volume).
type DiskStats struct {
	Reads      int64
	Writes     int64
	ReadBytes  int64
	WriteBytes int64
	BusySec    float64
}

// VolumeStats reports one volume's share of the array's activity. The
// per-volume counters sum to the aggregate DiskStats (pinned by
// TestVolumeStatsSumToAggregate).
type VolumeStats struct {
	Reads      int64
	Writes     int64
	ReadBytes  int64
	WriteBytes int64
	BusySec    float64

	// SeekSec and TransferSec split BusySec into positioning time
	// (distance-scaled seek plus half a rotation) and data movement.
	// Each is rounded to the tick independently, so the two may differ
	// from BusySec by up to one tick per access.
	SeekSec     float64
	TransferSec float64

	// MaxSeekDistance is the longest head movement observed, in
	// synthetic volume bytes.
	MaxSeekDistance int64
}

// Utilization returns the fraction of the run this volume spent busy.
func (v VolumeStats) Utilization(wallSec float64) float64 {
	if wallSec <= 0 {
		return 0
	}
	return v.BusySec / wallSec
}

// Result is the outcome of one simulation run.
type Result struct {
	WallTicks trace.Ticks // completion time of the last process
	BusyTicks trace.Ticks // CPU busy time summed over all CPUs
	IdleTicks trace.Ticks // idle CPU time summed over all CPUs
	Switches  int64
	NumCPUs   int

	Procs []ProcResult
	Cache cacheStats
	Disk  DiskStats

	// Volumes breaks Disk down per volume of the array, in volume
	// order; it always has Config.NumVolumes entries.
	Volumes []VolumeStats

	// VolumeQueues breaks per-volume request-queue behavior down when
	// DiskQueueing is on (one entry per volume, in volume order). It is
	// nil without queueing: the paper's no-queueing model has no queue
	// to measure.
	VolumeQueues []VolumeQueueStats

	// Flush summarizes the background flusher's write-back runs,
	// including how much of the run time overlapped across volumes
	// (placement-aware flushing).
	Flush FlushStats

	// FrontHitRatio is the fraction of cache hits served from the
	// optional main-memory front tier (0 when the tier is disabled).
	FrontHitRatio float64

	// DiskReadRate and DiskWriteRate bin bytes moved between cache and
	// disk by wall-clock time (Figures 6 and 7); DemandRate bins the
	// application-level request bytes.
	DiskReadRate  *stats.TimeSeries
	DiskWriteRate *stats.TimeSeries
	DemandRate    *stats.TimeSeries

	// Physical is the physical-level trace of every volume access
	// (demand fetches, read-ahead, flusher write-backs), recorded when
	// Config.RecordPhysical is set. Records use physical-record
	// semantics: block-number offsets, block-count lengths, operation
	// ids tying them to the logical requests that caused them.
	Physical []*trace.Record

	// SystemEfficiency is the mean over processes of CPUSec/FinishSec —
	// each application's achieved utilization, averaged. This is the
	// cross-application figure of merit the congestion literature
	// optimizes (Aupy et al.'s Σ β_i / N): a scheduler that lets one app
	// monopolize the backbone while others starve scores worse than one
	// that keeps every app progressing.
	SystemEfficiency float64

	// Backbone reports shared-backbone activity, with per-application
	// attribution; nil when the backbone is disabled.
	Backbone *BackboneStats

	// Burst reports burst-buffer activity; nil when the tier is
	// disabled.
	Burst *BurstStats

	// Availability is the fraction of the run's wall time during which
	// no fault-plan event was active (1 without a FaultPlan);
	// DegradedSec is the complementary degraded wall time, and
	// FaultEvents counts plan events that began during the run.
	Availability float64
	DegradedSec  float64
	FaultEvents  int

	cfgRateBin trace.Ticks
}

// Utilization returns busy CPU time over total CPU capacity
// (wall x CPUs) in [0,1].
func (r *Result) Utilization() float64 {
	if r.WallTicks == 0 || r.NumCPUs == 0 {
		return 0
	}
	return float64(r.BusyTicks) / float64(int64(r.WallTicks)*int64(r.NumCPUs))
}

// WallSeconds returns the run's execution time.
func (r *Result) WallSeconds() float64 { return r.WallTicks.Seconds() }

// IdleSeconds returns the CPU idle time, the paper's Figure 8 metric.
func (r *Result) IdleSeconds() float64 { return r.IdleTicks.Seconds() }

// VolumeImbalance measures how unevenly the array carried the run's
// traffic: the busiest volume's busy time over the mean volume busy
// time. 1 is a perfectly balanced array, N means one volume of N did all
// the work (a hot shard), and 0 means the disks were never touched.
// With one volume the metric is 1 whenever the disk moved at all.
func (r *Result) VolumeImbalance() float64 {
	var sum, max float64
	for _, v := range r.Volumes {
		sum += v.BusySec
		if v.BusySec > max {
			max = v.BusySec
		}
	}
	if sum == 0 || len(r.Volumes) == 0 {
		return 0
	}
	return max / (sum / float64(len(r.Volumes)))
}

func (r *Result) String() string {
	return fmt.Sprintf("wall %.1fs busy %.1fs idle %.1fs (util %.2f%%), disk r/w %.1f/%.1f MB, hit ratio %.3f",
		r.WallSeconds(), r.BusyTicks.Seconds(), r.IdleSeconds(), 100*r.Utilization(),
		float64(r.Disk.ReadBytes)/1e6, float64(r.Disk.WriteBytes)/1e6, r.Cache.ReadHitRatio())
}

// spaceWaiter is a request stalled for buffer space. The retry
// re-classifies the request's blocks against current cache state, so the
// waiter carries only the request's identity, not a closure.
type spaceWaiter struct {
	p     *proc
	r     *trace.Record
	seq   bool // reads: request was sequential when first classified
	write bool
}

// Simulator runs one configuration over a set of process traces.
type Simulator struct {
	cfg    Config
	now    trace.Ticks
	events eventHeap
	seq    uint64

	procs []*proc
	ready []*proc
	cpus  []*proc // per-CPU running process (nil = idle)

	busy      trace.Ticks
	switches  int64
	maxFinish trace.Ticks
	err       error // first mid-run failure (streaming source error, cancellation)

	cache        *cache
	front        *frontCache
	disk         *disk
	flushTimer   bool
	spaceWaiters []spaceWaiter

	// Placement-aware flushing: up to one write-back run per volume in
	// flight at once. flushOps is a fixed pool of run slots (a run
	// occupies at least one volume, so NumVolumes slots always
	// suffice); flushBusyVols counts volumes covered by in-flight runs,
	// so the every-write kickFlusher call stays O(1) when the array is
	// saturated — exactly the old single-run early return at N=1.
	flushOps      []flushOp
	flushOps1     [1]flushOp // inline slot: single-volume runs allocate nothing
	flushBusyVols int

	// Flush-overlap accounting (Result.Flush).
	flushRuns       int64
	flushActiveOps  int
	flushMaxConc    int
	flushOverlap    trace.Ticks
	flushLastChange trace.Ticks

	// Reusable request-classification scratch. Each buffer serves one
	// role so the I/O paths can overlap (a read classifies into keysBuf/
	// missBuf/joinsBuf while its read-ahead classifies into raBuf)
	// without stepping on each other; all are dead between events.
	keysBuf  []blockKey // block range of the request being classified
	missBuf  []blockKey // blocks needing fresh slots
	joinsBuf []*fetch   // in-flight fetches the request joins
	raBuf    []blockKey // read-ahead block range and its missing filter

	fetchFree *fetch      // recycled fetch structs
	waitFree  *ioWait     // recycled ioWait structs
	reqFree   *diskReq    // recycled deferred-scheduler request joins
	xferFree  *transfer   // recycled backbone transfers
	drainFree *drainEntry // recycled burst-buffer drain entries

	// backbone and burst model the shared I/O path and the burst-
	// absorbing tier; nil (the default) keeps both out of the event
	// flow entirely. faults follows the same discipline: nil means no
	// fault plan and no fault checks on any hot path.
	backbone *backbone
	burst    *burstBuffer
	faults   *faultState

	diskReadRate  *stats.TimeSeries
	diskWriteRate *stats.TimeSeries
	demandRate    *stats.TimeSeries

	physical []*trace.Record
}

// New returns a simulator for the given configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:           cfg,
		cpus:          make([]*proc, cfg.NumCPUs),
		cache:         newCache(&cfg),
		front:         newFrontCache(int(cfg.FrontBytes / cfg.BlockBytes)),
		diskReadRate:  stats.NewTimeSeries(int64(cfg.RateBinTicks)),
		diskWriteRate: stats.NewTimeSeries(int64(cfg.RateBinTicks)),
		demandRate:    stats.NewTimeSeries(int64(cfg.RateBinTicks)),
	}
	s.disk = newDisk(&cfg)
	s.cache.wireVolumes(s.disk)
	if cfg.BackboneMBps > 0 {
		s.backbone = newBackbone(&cfg)
	}
	if cfg.BurstBufferMB > 0 {
		s.burst = newBurstBuffer(&cfg)
	}
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		s.faults = newFaultState(cfg.Faults)
	}
	if len(s.disk.vols) == 1 {
		s.flushOps = s.flushOps1[:]
	} else {
		s.flushOps = make([]flushOp, len(s.disk.vols))
	}
	return s, nil
}

// ValidateTrace applies every check a materialized process feed needs,
// once: it filters comment records out of recs, rejects records the
// block index cannot address, requires a single process id and
// nondecreasing process-CPU order, and extracts the process's total CPU
// demand from the trace's end comment (falling back to the last record's
// clock at feed drain). The returned data slice aliases recs' records.
//
// Callers that fan one validated trace out to many simulators (see the
// facade's TraceSource) validate here once and register per run with
// AddProcessChecked, so per-scenario setup stays O(1).
func ValidateTrace(name string, recs []*trace.Record) (data []*trace.Record, pid uint32, endCPU trace.Ticks, err error) {
	var last trace.Ticks
	for _, r := range recs {
		if r.IsComment() {
			continue
		}
		if err := validateRecordBounds(name, r); err != nil {
			return nil, 0, 0, err
		}
		if len(data) == 0 {
			pid = r.ProcessID
		} else {
			if r.ProcessID != pid {
				return nil, 0, 0, fmt.Errorf("sim: trace %s mixes pids %d and %d", name, pid, r.ProcessID)
			}
			if r.ProcessTime < last {
				return nil, 0, 0, fmt.Errorf("sim: trace %s has non-monotone process time", name)
			}
		}
		last = r.ProcessTime
		data = append(data, r)
	}
	if len(data) == 0 {
		return nil, 0, 0, fmt.Errorf("sim: trace %s has no data records", name)
	}
	endCPU, _, _ = trace.EndTimes(recs)
	return data, pid, endCPU, nil
}

// AddProcess registers one materialized trace as a process. Traces must
// carry distinct process ids; records must be in nondecreasing process-CPU
// order. The whole trace is validated up front, and the run then serves
// records directly from the validated slice.
func (s *Simulator) AddProcess(name string, recs []*trace.Record) error {
	data, pid, endCPU, err := ValidateTrace(name, recs)
	if err != nil {
		return err
	}
	return s.AddProcessChecked(name, data, pid, endCPU)
}

// AddProcessChecked registers a trace that ValidateTrace has already
// filtered and checked: data must be comment-free, single-pid, and in
// nondecreasing process-CPU order. The feed serves the slice directly
// and its end-of-run clock is seeded from endCPU, so registration does
// no per-record work — the path a decode-once trace source uses to feed
// every scenario of a sweep from one validation pass.
func (s *Simulator) AddProcessChecked(name string, data []*trace.Record, pid uint32, endCPU trace.Ticks) error {
	if len(data) == 0 {
		return fmt.Errorf("sim: trace %s has no data records", name)
	}
	feed := &recordFeed{name: name, recs: data, pid: pid, started: true, endCmt: endCPU}
	return s.addFeed(name, feed, data)
}

// AddProcessSeq registers one streaming trace as a process. Records are
// pulled on demand as the simulation replays them, so the trace is never
// materialized; validation errors beyond the first record surface from
// Run rather than here. Incompatible with Config.WarmCache (which must
// scan the whole trace before the run starts).
func (s *Simulator) AddProcessSeq(name string, seq iter.Seq2[*trace.Record, error]) error {
	next, stop := iter.Pull2(seq)
	feed := &recordFeed{name: name, stop: stop, pull: func() (*trace.Record, error, bool) {
		return next()
	}}
	return s.addFeed(name, feed, nil)
}

// addFeed primes a feed and registers it as a process.
func (s *Simulator) addFeed(name string, feed *recordFeed, all []*trace.Record) error {
	if err := feed.prime(); err != nil {
		feed.close()
		return err
	}
	for _, p := range s.procs {
		if p.pid == feed.pid {
			feed.close()
			return fmt.Errorf("sim: duplicate pid %d (%s and %s)", feed.pid, p.name, name)
		}
	}
	s.procs = append(s.procs, &proc{
		pid: feed.pid, name: name, feed: feed, all: all, cpu: -1,
	})
	return nil
}

// fail aborts the run with err (first failure wins).
func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Close releases the streaming sources (pull iterators, underlying
// files) of every registered process. It is idempotent; RunContext
// closes automatically, so Close matters only when a simulator is
// abandoned before running — e.g. when a later AddProcess fails.
func (s *Simulator) Close() {
	for _, p := range s.procs {
		p.feed.close()
	}
}

// Run executes the simulation to completion.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the simulation to completion, aborting with the
// context's error if it is cancelled mid-run.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	defer s.Close()
	if len(s.procs) == 0 {
		return nil, fmt.Errorf("sim: no processes")
	}
	if s.cfg.WarmCache {
		if err := s.warmCache(); err != nil {
			return nil, err
		}
	}
	for _, p := range s.procs {
		p.computeLeft = p.feed.cur.ProcessTime
		s.ready = append(s.ready, p)
	}
	if s.backbone != nil {
		s.backbone.setApps(s.procs)
	}
	if s.faults != nil {
		// Every process's initial rollback point is the trace start;
		// checkpoint writes advance it as they complete.
		for _, p := range s.procs {
			p.ckpt = p.snapshot()
		}
		s.scheduleFaults()
	}
	s.dispatch()
	if !s.runEvents(ctx) {
		if s.err != nil {
			return nil, s.err
		}
		return nil, fmt.Errorf("sim: stalled at %v with unfinished processes (configuration cannot make progress)", s.now)
	}
	return s.result(), nil
}

// warmCache preloads every block the traces will touch, oldest files
// first, until the cache fills — the steady-state option for data sets
// that live in the SSD. It must scan whole traces before the run, so it
// requires materialized (AddProcess) processes.
func (s *Simulator) warmCache() error {
	seen := map[uint32]int64{}
	var order []uint32
	for _, p := range s.procs {
		if p.all == nil {
			return fmt.Errorf("sim: WarmCache requires materialized traces (process %s was added as a stream)", p.name)
		}
		for _, r := range p.all {
			if _, ok := seen[r.FileID]; !ok {
				order = append(order, r.FileID)
			}
			if r.End() > seen[r.FileID] {
				seen[r.FileID] = r.End()
			}
		}
	}
	for _, f := range order {
		nBlocks := (seen[f] + s.cfg.BlockBytes - 1) / s.cfg.BlockBytes
		for i := int64(0); i < nBlocks; i++ {
			if !s.cache.acquire(0, 1) {
				return nil // cache full
			}
			s.cache.insert(blockKey{f, i}, 0, false, false, int64(s.now))
		}
	}
	return nil
}

// --- CPU scheduling -------------------------------------------------

// dispatch hands ready processes to idle CPUs. "A job ready to run and
// residing in memory is run on any of the processors that is available"
// (§2.2).
func (s *Simulator) dispatch() {
	for cpu := range s.cpus {
		if len(s.ready) == 0 {
			return
		}
		if s.cpus[cpu] != nil {
			continue
		}
		p := s.ready[0]
		n := copy(s.ready, s.ready[1:])
		s.ready = s.ready[:n]
		s.cpus[cpu] = p
		p.cpu = cpu
		s.switches++
		s.busy += s.cfg.SwitchTicks
		s.post(s.cfg.SwitchTicks, event{kind: evRunSlice, p: p})
	}
}

// release takes p off its CPU.
func (s *Simulator) release(p *proc) {
	s.cpus[p.cpu] = nil
	p.cpu = -1
}

// runSlice lets the running process compute for up to one quantum.
func (s *Simulator) runSlice(p *proc) {
	slice := p.computeLeft
	if slice > s.cfg.QuantumTicks {
		slice = s.cfg.QuantumTicks
	}
	s.busy += slice
	s.post(slice, event{kind: evSliceEnd, p: p, tick: slice})
}

// sliceEnd handles quantum expiry or arrival at the process's next action.
func (s *Simulator) sliceEnd(p *proc, slice trace.Ticks) {
	p.computeLeft -= slice
	p.cpuUsed += slice
	if p.computeLeft > 0 {
		// Quantum expired: back of the queue.
		s.release(p)
		s.ready = append(s.ready, p)
		s.dispatch()
		return
	}
	s.action(p)
}

// action issues the process's next I/O, or retires the process.
func (s *Simulator) action(p *proc) {
	r := p.feed.cur
	if r == nil {
		p.done = true
		p.finishAt = s.now
		if s.now > s.maxFinish {
			s.maxFinish = s.now
		}
		s.release(p)
		s.dispatch()
		return
	}
	// File-system code runs on the CPU before the request reaches the
	// cache — the overhead that § 3 says penalized bvi's small requests.
	s.busy += s.cfg.FSCallTicks
	s.post(s.cfg.FSCallTicks, event{kind: evDoIO, p: p, r: r})
}

// advance consumes the current record and sets up the compute burst that
// follows it. A streaming-source failure aborts the run.
func (s *Simulator) advance(p *proc) {
	r := p.feed.cur
	if err := p.feed.step(); err != nil {
		s.fail(err)
		return
	}
	var next trace.Ticks
	if n := p.feed.cur; n != nil {
		next = n.ProcessTime - r.ProcessTime
	} else {
		next = p.feed.endCPU - r.ProcessTime
	}
	if next < 0 {
		next = 0
	}
	p.computeLeft = next
	if s.faults != nil {
		s.noteWriteAdvanced(p, r)
	}
}

// continueRunning resumes the running process after an action that kept
// the CPU (cache hit, absorbed write, async request).
func (s *Simulator) continueRunning(p *proc, cost trace.Ticks) {
	s.busy += cost
	s.post(cost, event{kind: evAdvanceRun, p: p})
}

// block suspends the running process until wake.
func (s *Simulator) block(p *proc) {
	p.blocked = true
	p.blockedSince = s.now
	s.release(p)
	s.dispatch()
}

// wake readies a blocked process (its next compute burst was already set
// up by advance).
func (s *Simulator) wake(p *proc) {
	if s.faults != nil {
		// The I/O the process blocked on completed; if it was a
		// checkpoint write, it is durable now.
		p.commitCkpt()
	}
	p.blocked = false
	p.blockedTotal += s.now - p.blockedSince
	s.ready = append(s.ready, p)
	s.dispatch()
}

// --- I/O paths ------------------------------------------------------

func (s *Simulator) doIO(p *proc, r *trace.Record) {
	s.demandRate.Add(int64(s.now), float64(r.Length))
	if r.Type.IsWrite() {
		s.doWrite(p, r)
	} else {
		s.doRead(p, r)
	}
}

// appendFetch adds f to joins unless already present. A request spans at
// most a handful of in-flight fetches, so a linear scan replaces the old
// map-based dedup without ever allocating.
func appendFetch(joins []*fetch, f *fetch) []*fetch {
	for _, g := range joins {
		if g == f {
			return joins
		}
	}
	return append(joins, f)
}

// newWait takes an ioWait from the free-list (or allocates the pool's
// next entry) for a synchronous read by p.
func (s *Simulator) newWait(p *proc) *ioWait {
	w := s.waitFree
	if w != nil {
		s.waitFree = w.freeNext
		w.remaining, w.p, w.freeNext = 0, p, nil
		w.failed = false
	} else {
		w = &ioWait{p: p}
	}
	return w
}

// freeWait recycles a fired wait.
func (s *Simulator) freeWait(w *ioWait) {
	w.p = nil
	w.freeNext = s.waitFree
	s.waitFree = w
}

// waitDone retires one of the fetches a wait was counting; the last one
// wakes the blocked process and recycles the wait — unless any leg
// failed unrecoverably, in which case the process restarts from its
// last checkpoint instead.
func (s *Simulator) waitDone(w *ioWait) {
	w.remaining--
	if w.remaining == 0 {
		p, failed := w.p, w.failed
		s.freeWait(w)
		if failed {
			s.restartProc(p)
			return
		}
		s.wake(p)
	}
}

func (s *Simulator) doRead(p *proc, r *trace.Record) {
	last := p.swapLastEnd(r.FileID, r.End())
	seq := r.Offset == last && r.Offset > 0
	async := r.Type.IsAsync()

	s.keysBuf = s.cache.blockRangeInto(s.keysBuf, r.FileID, r.Offset, r.Length)
	keys := s.keysBuf
	missing := s.missBuf[:0]
	joins := s.joinsBuf[:0]
	raTouched := false
	for _, k := range keys {
		b, f := s.cache.lookup(k)
		if b != nil {
			if s.cache.touch(b) {
				raTouched = true
			}
			continue
		}
		if f != nil {
			joins = appendFetch(joins, f)
			continue
		}
		missing = append(missing, k)
	}
	s.missBuf, s.joinsBuf = missing, joins

	if len(missing) == 0 && len(joins) == 0 {
		// Full cache hit: the process keeps the CPU for the copy (or SSD
		// channel transfer) and continues without suspending.
		s.cache.stats.ReadHitReqs++
		if raTouched {
			s.cache.stats.RAHitReqs++
		}
		s.maybeReadAhead(p, r, seq)
		s.continueRunning(p, s.tieredHitCost(keys, r.Length))
		return
	}
	s.cache.stats.ReadMissReqs++

	if async {
		// Asynchronous request: the application overlaps the fetch with
		// its own compute and never suspends — not for the disk, and not
		// for buffer space.
		if len(missing) > 0 {
			tag := physOp{kind: trace.FileData, op: r.OperationID, pid: p.pid}
			if s.cache.canEverFit(p.pid, len(missing)) && s.cache.acquire(p.pid, len(missing)) {
				s.startFetch(p.pid, missing, false, tag)
			} else {
				s.cache.stats.Bypasses++
				s.diskAccessTagged(r.FileID, r.Offset, r.Length, false, tag, event{kind: evNop})
			}
		}
		s.maybeReadAhead(p, r, seq)
		s.continueRunning(p, 0)
		return
	}

	// Synchronous miss: the process suspends until every needed block is
	// in (its own fetch plus any fetches already in flight).
	s.advance(p)
	s.block(p)
	if !s.tryIssueRead(p, r, seq) {
		s.cache.stats.SpaceStalls++
		s.spaceWaiters = append(s.spaceWaiters, spaceWaiter{p: p, r: r, seq: seq})
	}
}

// tryIssueRead classifies a blocked synchronous read's blocks against
// *current* cache state (the world changes while a request waits for
// buffer space: fetches complete, blocks arrive or get evicted) and
// issues the miss if space permits. It reports false when the request
// must keep waiting for the flusher.
func (s *Simulator) tryIssueRead(p *proc, r *trace.Record, seq bool) bool {
	s.keysBuf = s.cache.blockRangeInto(s.keysBuf, r.FileID, r.Offset, r.Length)
	missing := s.missBuf[:0]
	joins := s.joinsBuf[:0]
	for _, k := range s.keysBuf {
		b, f := s.cache.lookup(k)
		if b != nil {
			s.cache.touch(b)
			continue
		}
		if f != nil {
			joins = appendFetch(joins, f)
			continue
		}
		missing = append(missing, k)
	}
	s.missBuf, s.joinsBuf = missing, joins
	haveSpace := true
	if len(missing) > 0 {
		if !s.cache.canEverFit(p.pid, len(missing)) {
			haveSpace = false // permanent: bypass below
		} else if !s.cache.acquire(p.pid, len(missing)) {
			return false // transient: wait for the flusher
		}
	}
	wait := s.newWait(p)
	if len(missing) > 0 {
		wait.remaining++
		tag := physOp{kind: trace.FileData, op: r.OperationID, pid: p.pid}
		if haveSpace {
			f := s.startFetch(p.pid, missing, false, tag)
			f.waiters = append(f.waiters, wait)
		} else {
			s.cache.stats.Bypasses++
			first, last := missing[0].idx, missing[len(missing)-1].idx
			off := first * s.cfg.BlockBytes
			size := (last - first + 1) * s.cfg.BlockBytes
			s.diskAccessTagged(r.FileID, off, size, false, tag, event{kind: evWaitDone, w: wait})
		}
	}
	for _, f := range joins {
		wait.remaining++
		f.waiters = append(f.waiters, wait)
	}
	s.maybeReadAhead(p, r, seq)
	if wait.remaining == 0 {
		// Everything arrived while this request waited for space.
		s.freeWait(wait)
		s.wake(p)
	}
	return true
}

// startFetch issues a disk read covering keys (one contiguous span) and
// registers it as pending. The keys are copied into the fetch's own
// buffer (callers pass scratch); fetch structs come from the free-list.
// tag carries provenance for physical-level trace emission.
func (s *Simulator) startFetch(owner uint32, keys []blockKey, prefetched bool, tag physOp) *fetch {
	f := s.fetchFree
	if f != nil {
		s.fetchFree = f.freeNext
		f.freeNext = nil
		f.owner, f.prefetched = owner, prefetched
		f.keys = append(f.keys[:0], keys...)
		f.waiters = f.waiters[:0]
	} else {
		f = &fetch{owner: owner, prefetched: prefetched, keys: append([]blockKey(nil), keys...)}
	}
	for _, k := range f.keys {
		s.cache.setPending(k, f)
	}
	first, last := f.keys[0].idx, f.keys[len(f.keys)-1].idx
	file := f.keys[0].file
	off := first * s.cfg.BlockBytes
	size := (last - first + 1) * s.cfg.BlockBytes
	s.diskAccessTagged(file, off, size, false, tag, event{kind: evFetchDone, f: f})
	return f
}

// completeFetch inserts fetched blocks, resumes waiters, and recycles the
// fetch.
func (s *Simulator) completeFetch(f *fetch) {
	for _, k := range f.keys {
		// Insert before clearing the pending mark so the slot's page is
		// reused in place rather than freed and reallocated.
		s.cache.insert(k, f.owner, false, f.prefetched, int64(s.now))
		s.cache.clearPending(k)
	}
	for _, w := range f.waiters {
		s.waitDone(w)
	}
	s.trySpaceWaiters()
	f.keys, f.waiters = f.keys[:0], f.waiters[:0]
	f.freeNext = s.fetchFree
	s.fetchFree = f
}

// maybeReadAhead prefetches, after a sequential read, the amount of data
// just read (§6.2's policy). Prefetches never stall: if buffer space is
// tight the prefetch is skipped.
func (s *Simulator) maybeReadAhead(p *proc, r *trace.Record, seq bool) {
	if !s.cfg.ReadAhead || !seq || r.Length <= 0 {
		return
	}
	s.raBuf = s.cache.blockRangeInto(s.raBuf, r.FileID, r.End(), r.Length)
	keys := s.raBuf
	missing := keys[:0] // filter in place; reads stay ahead of writes
	for _, k := range keys {
		if b, f := s.cache.lookup(k); b == nil && f == nil {
			missing = append(missing, k)
		}
	}
	// Only a contiguous leading span keeps the disk op simple; holes are
	// rare for these sequential workloads.
	missing = leadingRun(missing)
	if len(missing) == 0 || !s.cache.acquire(p.pid, len(missing)) {
		return
	}
	s.cache.stats.PrefetchOps++
	s.startFetch(p.pid, missing, true, physOp{kind: trace.ReadAheadK, pid: p.pid})
}

// leadingRun trims keys to their first contiguous run.
func leadingRun(keys []blockKey) []blockKey {
	for i := 1; i < len(keys); i++ {
		if keys[i].idx != keys[i-1].idx+1 {
			return keys[:i]
		}
	}
	return keys
}

// classifyWrite returns the blocks of keys that need fresh slots right
// now (neither resident nor being fetched); resident blocks are touched.
// The result lives in the simulator's scratch buffer.
func (s *Simulator) classifyWrite(keys []blockKey) []blockKey {
	toInsert := s.missBuf[:0]
	for _, k := range keys {
		b, f := s.cache.lookup(k)
		if b != nil {
			s.cache.touch(b)
			continue
		}
		if f != nil {
			// A fetch is in flight; that fetch's insert will land the
			// block and the markDirty pass below dirties whatever is
			// resident by then.
			continue
		}
		toInsert = append(toInsert, k)
	}
	s.missBuf = toInsert
	return toInsert
}

// fillWrite inserts the write's blocks (dirty when absorbing) and marks
// resident blocks dirty.
func (s *Simulator) fillWrite(keys, toInsert []blockKey, dirty bool, pid uint32) {
	for _, k := range toInsert {
		s.cache.insert(k, pid, dirty, false, int64(s.now))
	}
	if dirty {
		for _, k := range keys {
			if b := s.cache.resident(k); b != nil {
				s.cache.markDirty(b, int64(s.now))
			}
		}
		s.kickFlusher()
	}
}

func (s *Simulator) doWrite(p *proc, r *trace.Record) {
	p.swapLastEnd(r.FileID, r.End())
	async := r.Type.IsAsync()
	s.keysBuf = s.cache.blockRangeInto(s.keysBuf, r.FileID, r.Offset, r.Length)
	keys := s.keysBuf

	if !s.cfg.WriteBehind {
		// Write-through: data goes synchronously to disk (asynchronous
		// application requests continue; the app manages the overlap).
		// The cache still keeps a clean copy so re-reads hit.
		toInsert := s.classifyWrite(keys)
		if len(toInsert) > 0 && s.cache.canEverFit(p.pid, len(toInsert)) && s.cache.acquire(p.pid, len(toInsert)) {
			s.fillWrite(keys, toInsert, false, p.pid)
		}
		s.cache.stats.WriteThrough++
		tag := physOp{kind: trace.FileData, op: r.OperationID, pid: p.pid}
		if async {
			s.diskAccessTagged(r.FileID, r.Offset, r.Length, true, tag, event{kind: evNop})
			s.continueRunning(p, 0)
			return
		}
		s.advance(p)
		s.diskAccessTagged(r.FileID, r.Offset, r.Length, true, tag, event{kind: evWake, p: p})
		s.block(p)
		return
	}

	// Write-behind: absorb into the cache and continue. Asynchronous
	// requests never stall for space (they bypass); synchronous ones wait
	// for the flusher — the §6.2 stall that makes small caches unable to
	// sustain write-behind.
	toInsert := s.classifyWrite(keys)
	if len(toInsert) == 0 || (s.cache.canEverFit(p.pid, len(toInsert)) && s.cache.acquire(p.pid, len(toInsert))) {
		s.fillWrite(keys, toInsert, true, p.pid)
		s.cache.stats.WriteAbsorbed++
		s.continueRunning(p, s.tieredHitCost(keys, r.Length))
		return
	}
	if !s.cache.canEverFit(p.pid, len(toInsert)) || async {
		s.cache.stats.Bypasses++
		tag := physOp{kind: trace.FileData, op: r.OperationID, pid: p.pid}
		if async {
			s.diskAccessTagged(r.FileID, r.Offset, r.Length, true, tag, event{kind: evNop})
			s.continueRunning(p, 0)
			return
		}
		s.advance(p)
		s.diskAccessTagged(r.FileID, r.Offset, r.Length, true, tag, event{kind: evWake, p: p})
		s.block(p)
		return
	}
	s.cache.stats.SpaceStalls++
	s.advance(p)
	s.block(p)
	s.spaceWaiters = append(s.spaceWaiters, spaceWaiter{p: p, r: r, write: true})
}

// retryWrite re-attempts a space-stalled write-behind absorption. The
// world may have changed while waiting, so the write is re-classified.
func (s *Simulator) retryWrite(p *proc, r *trace.Record) bool {
	s.keysBuf = s.cache.blockRangeInto(s.keysBuf, r.FileID, r.Offset, r.Length)
	keys := s.keysBuf
	toInsert := s.classifyWrite(keys)
	if len(toInsert) > 0 {
		if !s.cache.canEverFit(p.pid, len(toInsert)) {
			// The request grew past what the cache can ever admit (its
			// resident blocks were evicted while it waited): write
			// through, as doWrite does for permanently unservable
			// writes, instead of stalling the FIFO head forever.
			s.cache.stats.Bypasses++
			tag := physOp{kind: trace.FileData, op: r.OperationID, pid: p.pid}
			s.diskAccessTagged(r.FileID, r.Offset, r.Length, true, tag, event{kind: evWake, p: p})
			return true
		}
		if !s.cache.acquire(p.pid, len(toInsert)) {
			return false
		}
	}
	s.fillWrite(keys, toInsert, true, p.pid)
	s.cache.stats.WriteAbsorbed++
	s.wake(p)
	return true
}

// --- flusher and space management ------------------------------------

// flushOp is one in-flight write-back run: the dirty blocks being
// written and the volumes the run's segments land on (no other run may
// touch those volumes until this one completes). Slots are reused; the
// inline vols array covers typical arrays without allocating.
type flushOp struct {
	blocks     []*block
	vols       []int
	volsInline [8]int
	active     bool
}

// flushScanLimit bounds how many dirty-FIFO entries one kickFlusher
// call examines while looking for runs on idle volumes. Runs beyond the
// limit are only delayed, never stranded: every flush completion
// rescans from the FIFO front, where runs are always issuable once
// their volumes free up.
const flushScanLimit = 1024

// kickFlusher starts background write-behind runs on idle volumes. The
// dirty FIFO is scanned oldest-first, grouped into contiguous same-file
// runs of up to MaxFlushRunBlocks, and each run whose volumes are all
// idle is issued — so write-back overlaps across the shards of a
// multi-volume array instead of serializing behind one spindle. With
// one volume this degenerates to the classic single-run flusher, byte
// for byte. With a Sprite-style flush delay configured, it waits for
// the oldest dirty block to age before flushing (§2.1; the paper
// argues this buys nothing for supercomputer workloads).
func (s *Simulator) kickFlusher() {
	d := s.disk
	if s.cache.dirtyCount() == 0 || s.flushBusyVols == len(d.vols) {
		return
	}
	if fd := s.cfg.FlushDelayTicks; fd > 0 {
		oldest := s.cache.oldestDirty()
		if age := s.now - trace.Ticks(oldest.dirtyAt); age < fd {
			if !s.flushTimer {
				s.flushTimer = true
				s.post(fd-age, event{kind: evFlushTimer})
			}
			return
		}
	}
	// O(volumes) early exit: an issuable run must be headed by a dirty
	// block whose home volume is idle (pinned blocks belong to in-flight
	// runs, whose volumes are busy), so if no idle volume has dirty home
	// blocks there is nothing to scan for — the saturated case costs the
	// same as the old single-run "if flushing return" guard.
	idle := false
	for i := range d.vols {
		if !d.vols[i].flushBusy && s.cache.dirtyByVol[i] > 0 &&
			!(s.faults != nil && d.vols[i].downCnt > 0) {
			idle = true
			break
		}
	}
	if !idle {
		return
	}
	fd := s.cfg.FlushDelayTicks
	scanned := 0
	for b := s.cache.dirty.front; b != nil && s.flushBusyVols < len(d.vols) && scanned < flushScanLimit; {
		next := b.links[dirtyList].next
		scanned++
		if fd > 0 {
			if age := s.now - trace.Ticks(b.dirtyAt); age < fd {
				// The FIFO is dirty-time ordered, so every later block is
				// younger still: stop here and let the aging timer retry.
				// (The oldest-block gate above covers the FIFO front; this
				// arm covers younger run heads deeper in a multi-volume
				// scan.)
				if !s.flushTimer {
					s.flushTimer = true
					s.post(fd-age, event{kind: evFlushTimer})
				}
				break
			}
		}
		// A run headed at b always touches b's home volume; skip the run
		// assembly entirely when that volume is mid-flush or down (the
		// block stays dirty; recovery re-kicks the flusher to drain it).
		if hv := s.cache.homeVol(b); !b.pinned && !d.vols[hv].flushBusy &&
			!(s.faults != nil && d.vols[hv].downCnt > 0) {
			s.tryIssueFlush(s.cache.dirtyRunFrom(b, s.cfg.MaxFlushRunBlocks))
		}
		b = next
	}
}

// tryIssueFlush issues one write-back run if every volume it touches is
// idle, pinning its blocks and marking those volumes flush-busy. It
// reports whether the run was issued.
func (s *Simulator) tryIssueFlush(run []*block) bool {
	if len(run) == 0 {
		return false
	}
	d := s.disk
	slot := -1
	for i := range s.flushOps {
		if !s.flushOps[i].active {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false // every slot busy: the array is saturated
	}
	op := &s.flushOps[slot]
	if op.vols == nil {
		op.vols = op.volsInline[:0]
	}
	first := run[0].key
	off := first.idx * s.cfg.BlockBytes
	size := int64(len(run)) * s.cfg.BlockBytes
	op.vols = op.vols[:0]
	for _, seg := range d.split(first.file, off, size) {
		if d.vols[seg.vol].flushBusy || (s.faults != nil && d.vols[seg.vol].downCnt > 0) {
			return false
		}
		op.vols = append(op.vols, seg.vol)
	}
	op.active = true
	if len(d.vols) == 1 {
		// Single volume: at most one run in flight, so the run may alias
		// the cache's scratch (dirtyRunFrom won't be called again until
		// this op completes and drops the reference).
		op.blocks = run
	} else {
		op.blocks = append(op.blocks[:0], run...)
	}
	for _, b := range run {
		b.pinned = true
	}
	for _, vi := range op.vols {
		d.vols[vi].flushBusy = true
	}
	s.flushBusyVols += len(op.vols)
	s.flushRuns++
	s.noteFlushTransition(1)
	// The run is attributed to the process that dirtied its head block,
	// so backbone scheduling and per-app stats see write-behind traffic
	// as the application's own (owner 0 — warm-cache blocks — falls to
	// the first registered app).
	s.diskAccessTagged(first.file, off, size, true,
		physOp{kind: trace.FileData, pid: run[0].owner},
		event{kind: evFlushDone, vol: int32(slot)})
	return true
}

// noteFlushTransition updates the flush-overlap accounting at every run
// issue (+1) or completion (-1).
func (s *Simulator) noteFlushTransition(delta int) {
	if s.flushActiveOps >= 2 {
		s.flushOverlap += s.now - s.flushLastChange
	}
	s.flushLastChange = s.now
	s.flushActiveOps += delta
	if s.flushActiveOps > s.flushMaxConc {
		s.flushMaxConc = s.flushActiveOps
	}
}

// completeFlush lands one in-flight write-back run: its blocks become
// clean and evictable, its volumes free up, stalled requests get
// another chance, and the flusher re-scans the dirty FIFO — including
// blocks dirtied while this run was in flight, so per-volume runs
// cannot strand dirty blocks behind a busy spindle.
func (s *Simulator) completeFlush(slot int) {
	op := &s.flushOps[slot]
	for _, b := range op.blocks {
		b.pinned = false
		s.cache.markClean(b)
	}
	for _, vi := range op.vols {
		s.disk.vols[vi].flushBusy = false
	}
	s.flushBusyVols -= len(op.vols)
	if len(s.disk.vols) == 1 {
		op.blocks = nil // aliased cache scratch; drop, don't truncate
	} else {
		for i := range op.blocks {
			op.blocks[i] = nil
		}
		op.blocks = op.blocks[:0]
	}
	op.active = false
	s.noteFlushTransition(-1)
	s.trySpaceWaiters()
	s.kickFlusher()
}

// trySpaceWaiters admits stalled requests in FIFO order as space allows.
func (s *Simulator) trySpaceWaiters() {
	for len(s.spaceWaiters) > 0 {
		w := s.spaceWaiters[0]
		var ok bool
		if w.write {
			ok = s.retryWrite(w.p, w.r)
		} else {
			ok = s.tryIssueRead(w.p, w.r, w.seq)
		}
		if !ok {
			// Head-of-line blocking is deliberate: FIFO fairness. Make
			// sure the flusher is working on the head's behalf.
			if s.cache.dirtyCount() > 0 {
				s.kickFlusher()
			}
			return
		}
		n := copy(s.spaceWaiters, s.spaceWaiters[1:])
		s.spaceWaiters = s.spaceWaiters[:n]
	}
}

// --- results ----------------------------------------------------------

func (s *Simulator) result() *Result {
	res := &Result{
		WallTicks:     s.maxFinish,
		BusyTicks:     s.busy,
		Switches:      s.switches,
		NumCPUs:       s.cfg.NumCPUs,
		Cache:         s.cache.stats,
		DiskReadRate:  s.diskReadRate,
		DiskWriteRate: s.diskWriteRate,
		DemandRate:    s.demandRate,
		Physical:      s.physical,
		cfgRateBin:    s.cfg.RateBinTicks,
	}
	res.Volumes = make([]VolumeStats, len(s.disk.vols))
	for i := range s.disk.vols {
		v := &s.disk.vols[i]
		res.Volumes[i] = VolumeStats{
			Reads: v.reads, Writes: v.writes,
			ReadBytes: v.readBytes, WriteBytes: v.writeBytes,
			BusySec:         v.busyTicks.Seconds(),
			SeekSec:         v.seekTicks.Seconds(),
			TransferSec:     v.transferTicks.Seconds(),
			MaxSeekDistance: v.maxObservedSeekDistance,
		}
		res.Disk.Reads += v.reads
		res.Disk.Writes += v.writes
		res.Disk.ReadBytes += v.readBytes
		res.Disk.WriteBytes += v.writeBytes
		res.Disk.BusySec += v.busyTicks.Seconds()
	}
	if s.cfg.DiskQueueing {
		res.VolumeQueues = make([]VolumeQueueStats, len(s.disk.vols))
		for i := range s.disk.vols {
			v := &s.disk.vols[i]
			qs := VolumeQueueStats{
				MaxDepth: v.maxQueueDepth,
				Waits:    v.queueWaits,
				WaitSec:  v.queueWaitTicks.Seconds(),
			}
			if len(v.procQ) > 0 {
				qs.PerProc = make([]ProcQueueStats, len(v.procQ))
				for j, acc := range v.procQ {
					qs.PerProc[j] = ProcQueueStats{
						PID:        acc.pid,
						Waits:      acc.waits,
						WaitSec:    acc.waitTicks.Seconds(),
						MaxWaitSec: acc.maxWait.Seconds(),
					}
				}
				sort.Slice(qs.PerProc, func(a, b int) bool {
					return qs.PerProc[a].PID < qs.PerProc[b].PID
				})
			}
			res.VolumeQueues[i] = qs
		}
	}
	res.Flush = FlushStats{
		Runs:          s.flushRuns,
		MaxConcurrent: s.flushMaxConc,
		OverlapSec:    s.flushOverlap.Seconds(),
	}
	if s.front != nil {
		res.FrontHitRatio = s.front.HitRatio()
	}
	capacity := trace.Ticks(int64(res.WallTicks) * int64(s.cfg.NumCPUs))
	if res.BusyTicks > capacity {
		// The busy accumulator can run a hair past the last finish when
		// trailing OS work was scheduled; clamp.
		res.BusyTicks = capacity
	}
	res.IdleTicks = capacity - res.BusyTicks
	res.Procs = make([]ProcResult, 0, len(s.procs))
	for _, p := range s.procs {
		pr := ProcResult{
			PID: p.pid, Name: p.name,
			FinishSec:       p.finishAt.Seconds(),
			CPUSec:          p.cpuUsed.Seconds(),
			BlockedSec:      p.blockedTotal.Seconds(),
			Dilation:        1,
			Restarts:        p.restarts,
			LostTicks:       p.lostTicks,
			RetriedRequests: p.retried,
		}
		if s.backbone != nil {
			if a := s.backbone.appByPID(p.pid); a != nil {
				if base := pr.FinishSec - a.syncWaitTicks.Seconds(); base > 0 {
					if dil := pr.FinishSec / base; dil > 1 {
						pr.Dilation = dil
					}
				}
			}
		}
		if pr.FinishSec > 0 {
			res.SystemEfficiency += pr.CPUSec / pr.FinishSec
		}
		res.Procs = append(res.Procs, pr)
	}
	if len(res.Procs) > 0 {
		res.SystemEfficiency /= float64(len(res.Procs))
	}
	sort.Slice(res.Procs, func(a, b int) bool { return res.Procs[a].PID < res.Procs[b].PID })
	if s.backbone != nil {
		res.Backbone = s.backbone.stats()
	}
	if s.burst != nil {
		res.Burst = s.burst.stats()
	}
	res.Availability = 1
	if s.faults != nil {
		events, degraded := s.faults.degradedWindow(res.WallTicks)
		res.FaultEvents = events
		res.DegradedSec = degraded.Seconds()
		if res.WallTicks > 0 {
			res.Availability = 1 - res.DegradedSec/res.WallSeconds()
		}
	}
	return res
}
