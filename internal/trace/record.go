// Package trace implements the I/O trace format of Miller's
// "Input/Output Behavior of Supercomputing Applications" (UCB/CSD 91/616).
//
// The format records one entry per read or write call made by an
// application, carrying three timestamps (wall-clock start, completion
// latency, and process CPU time), the file offset and request length, and
// identifiers tying the record to a file, a process, and a logical
// operation. Records are delta- and elision-compressed against per-file and
// per-process history and serialized either as variable-length printed
// ASCII (the paper's permanent format) or as fixed-width binary.
//
// All durations and timestamps use Ticks, the paper's 10 microsecond unit.
package trace

import "fmt"

// Ticks is the paper's time unit: one tick is 10 microseconds. Timestamps
// ("time since trace epoch") and durations share this type, as they do in
// the paper's format.
type Ticks int64

// Tick unit conversions.
const (
	TicksPerMicrosecond10 Ticks = 1          // one tick
	TicksPerMillisecond   Ticks = 100        // 1 ms = 100 ticks
	TicksPerSecond        Ticks = 100 * 1000 // 1 s = 100,000 ticks
	TicksPerMinute        Ticks = 60 * TicksPerSecond
)

// Seconds converts t to floating-point seconds.
func (t Ticks) Seconds() float64 { return float64(t) / float64(TicksPerSecond) }

// TicksFromSeconds converts floating-point seconds to Ticks, rounding to
// the nearest tick.
func TicksFromSeconds(s float64) Ticks {
	if s >= 0 {
		return Ticks(s*float64(TicksPerSecond) + 0.5)
	}
	return Ticks(s*float64(TicksPerSecond) - 0.5)
}

// TicksFromMicroseconds converts microseconds to Ticks (truncating toward
// zero; the paper's resolution argument is that 10 us suffices for I/O).
func TicksFromMicroseconds(us int64) Ticks { return Ticks(us / 10) }

// TicksFromMicrosecondsCeil converts microseconds to Ticks, rounding up,
// for costs that must never truncate to free.
func TicksFromMicrosecondsCeil(us int64) Ticks { return Ticks((us + 9) / 10) }

func (t Ticks) String() string {
	return fmt.Sprintf("%.5fs", t.Seconds())
}

// RecordType is the paper's recordType field: a bit-set describing what
// kind of access a record represents. The low two bits classify the data
// (file data, metadata, read-ahead, VM paging); the remaining bits flag
// logical vs physical, read vs write, sync vs async, and the optional
// cache-outcome annotations. The distinguished value Comment marks a
// human-readable comment record.
type RecordType uint16

// Data-kind values (low two bits of RecordType).
const (
	FileData   RecordType = 0x0 // file (user) data
	MetaData   RecordType = 0x1 // metadata, such as indirect blocks
	ReadAheadK RecordType = 0x2 // read-ahead blocks requested by the FS
	VirtualMem RecordType = 0x3 // blocks requested by VM paging

	dataKindMask RecordType = 0x3
)

// Flag bits of RecordType.
const (
	// LogicalRecord distinguishes logical (file-level) records from
	// physical (disk-level) records.
	LogicalRecord  RecordType = 0x80
	PhysicalRecord RecordType = 0x00

	// WriteOp marks a write; its absence marks a read.
	WriteOp RecordType = 0x40
	ReadOp  RecordType = 0x00

	// AsyncOp marks an asynchronous request; its absence, synchronous.
	AsyncOp RecordType = 0x08
	SyncOp  RecordType = 0x00

	// CacheMiss and RAHit are optional analysis annotations: whether the
	// request needed disk blocks, and whether a cache hit was satisfied
	// by a read-ahead block.
	CacheMiss RecordType = 0x20
	CacheHit  RecordType = 0x00
	RAHit     RecordType = 0x10
	RAMiss    RecordType = 0x00

	// Comment marks a comment record, ignored by analysis but useful for
	// recording fileId<->name correspondences and trace provenance.
	Comment RecordType = 0xff
)

// Kind returns the data-kind bits of the record type.
func (t RecordType) Kind() RecordType { return t & dataKindMask }

// IsComment reports whether the type denotes a comment record.
func (t RecordType) IsComment() bool { return t == Comment }

// IsLogical reports whether the record is a logical (file-level) record.
func (t RecordType) IsLogical() bool { return t&LogicalRecord != 0 }

// IsWrite reports whether the record is a write.
func (t RecordType) IsWrite() bool { return t&WriteOp != 0 }

// IsRead reports whether the record is a read.
func (t RecordType) IsRead() bool { return t&WriteOp == 0 && !t.IsComment() }

// IsAsync reports whether the request was asynchronous.
func (t RecordType) IsAsync() bool { return t&AsyncOp != 0 }

// IsCacheMiss reports whether the optional cache-outcome annotation says
// the request needed disk blocks.
func (t RecordType) IsCacheMiss() bool { return t&CacheMiss != 0 }

// IsRAHit reports whether the optional annotation says the request was
// satisfied by a read-ahead block already in the cache.
func (t RecordType) IsRAHit() bool { return t&RAHit != 0 }

func (t RecordType) String() string {
	if t.IsComment() {
		return "comment"
	}
	s := "phys"
	if t.IsLogical() {
		s = "log"
	}
	if t.IsWrite() {
		s += "|write"
	} else {
		s += "|read"
	}
	if t.IsAsync() {
		s += "|async"
	} else {
		s += "|sync"
	}
	switch t.Kind() {
	case MetaData:
		s += "|meta"
	case ReadAheadK:
		s += "|ra"
	case VirtualMem:
		s += "|vm"
	}
	if t.IsCacheMiss() {
		s += "|miss"
	}
	if t.IsRAHit() {
		s += "|rahit"
	}
	return s
}

// Compression is the paper's compression field: a bit-set describing which
// record fields were elided (to be reconstructed from history) and whether
// offset/length were stored in 512-byte blocks.
type Compression uint16

// Compression flag bits, verbatim from the appendix.
const (
	// OffsetInBlocks and LengthInBlocks indicate the stored value must be
	// multiplied by BlockSize. They are only set when the corresponding
	// field is actually present in the record.
	OffsetInBlocks Compression = 0x01
	LengthInBlocks Compression = 0x02

	// NoLength: take the length from the previous record of this file.
	NoLength Compression = 0x04
	// NoProcessID: take the process id from the previous record in the trace.
	NoProcessID Compression = 0x08
	// NoOperationID: take the operation id from the previous record of
	// this file (useless for logical-only traces, per the paper).
	NoOperationID Compression = 0x20
	// NoOffset (TRACE_NO_BLOCK): the access is sequential with the
	// previous access to this file (previous offset + length).
	NoOffset Compression = 0x40
	// NoFileID: take the file id from the previous record by this process.
	NoFileID Compression = 0x80
)

// BlockSize is TRACE_BLOCK_SIZE: the quantum for block-relative offsets
// and lengths.
const BlockSize = 512

// Has reports whether all bits of f are set in c.
func (c Compression) Has(f Compression) bool { return c&f == f }

// MaxOpenFiles is the per-process file-state table size the paper
// prescribes for trace readers: "keep track of 32 open files for each
// process". Compressor and Decompressor share this bound so their state
// machines stay in lock-step.
const MaxOpenFiles = 32

// Record is a fully reconstructed (uncompressed) trace record.
//
// Unlike the wire format, which stores times as deltas, Record carries
// absolute values where that aids analysis: Start is wall-clock time since
// the trace epoch, and ProcessTime is the process's cumulative CPU time at
// the moment the I/O started. Completion is a duration (the wire format's
// definition: completion minus start).
type Record struct {
	Type        RecordType
	Offset      int64  // byte offset in file (logical) or block number (physical)
	Length      int64  // length of the access in bytes (logical) or blocks (physical)
	Start       Ticks  // wall-clock start, absolute since trace epoch
	Completion  Ticks  // duration from start until completion was reported
	OperationID uint32 // ties logical records to the physical I/Os they generate
	FileID      uint32 // unique per file open (per disk, for physical records)
	ProcessID   uint32 // requesting process (logical records only)
	ProcessTime Ticks  // process CPU clock at I/O start, absolute

	// CommentText carries the body of a comment record (Type == Comment);
	// it is empty for data records.
	CommentText string
}

// End returns the first byte offset past the access.
func (r *Record) End() int64 { return r.Offset + r.Length }

// IsComment reports whether the record is a comment record.
func (r *Record) IsComment() bool { return r.Type.IsComment() }

func (r *Record) String() string {
	if r.IsComment() {
		return fmt.Sprintf("# %s", r.CommentText)
	}
	return fmt.Sprintf("[%s] pid=%d file=%d op=%d off=%d len=%d start=%s lat=%s ptime=%s",
		r.Type, r.ProcessID, r.FileID, r.OperationID, r.Offset, r.Length,
		r.Start, r.Completion, r.ProcessTime)
}

// Validate checks internal consistency of a single record, independent of
// any trace context.
func (r *Record) Validate() error {
	if r.IsComment() {
		return nil
	}
	if r.Offset < 0 {
		return fmt.Errorf("trace: negative offset %d", r.Offset)
	}
	if r.Length < 0 {
		return fmt.Errorf("trace: negative length %d", r.Length)
	}
	if r.Start < 0 {
		return fmt.Errorf("trace: negative start time %d", r.Start)
	}
	if r.Completion < 0 {
		return fmt.Errorf("trace: negative completion latency %d", r.Completion)
	}
	if r.ProcessTime < 0 {
		return fmt.Errorf("trace: negative process time %d", r.ProcessTime)
	}
	if r.CommentText != "" {
		return fmt.Errorf("trace: comment text on non-comment record")
	}
	return nil
}
