// Package analysis characterizes I/O traces the way §5 of the paper does:
// totals and rates (Tables 1 and 2), request-size distributions,
// sequentiality, per-file breakdowns with the large/small file split,
// data-rate time series binned by CPU or wall time (Figures 3 and 4), and
// autocorrelation-based cycle detection (§5.3).
package analysis

import (
	"fmt"
	"sort"

	"iotrace/internal/stats"
	"iotrace/internal/trace"
)

// MB is the decimal megabyte used by the paper's tables.
const MB = 1e6

// LargeFileBytes is the threshold of §5.2: characterization concentrates
// on "large" files (over a few megabytes); parameter files and text output
// below it contribute little I/O.
const LargeFileBytes = 2 * MB

// FileStats accumulates per-file (strictly, per-open, since fileIds are
// per-open) characteristics.
type FileStats struct {
	FileID     uint32
	Name       string // from file-name comments, when present
	ReadCount  int64
	WriteCount int64
	ReadBytes  int64
	WriteBytes int64
	// MaxEnd is the largest offset+length seen: the observed file size.
	MaxEnd int64
	// SeqCount counts requests sequential with the file's previous
	// request (equal offsets following a rewrite from 0 also count via
	// the wrap heuristic below).
	SeqCount int64
	// FirstIO and LastIO are the process CPU clocks bounding the file's
	// activity, for I/O-class attribution.
	FirstIO trace.Ticks
	LastIO  trace.Ticks

	lastEnd  int64
	touched  bool
	sizeHist stats.Histogram
}

// Requests returns the file's total request count.
func (f *FileStats) Requests() int64 { return f.ReadCount + f.WriteCount }

// Bytes returns the file's total bytes moved.
func (f *FileStats) Bytes() int64 { return f.ReadBytes + f.WriteBytes }

// IsLarge reports whether the file crosses the §5.2 "large file" line.
func (f *FileStats) IsLarge() bool { return f.MaxEnd >= LargeFileBytes }

// SeqFraction is the fraction of requests sequential with their
// predecessor on this file.
func (f *FileStats) SeqFraction() float64 {
	if f.Requests() <= 1 {
		return 1
	}
	return float64(f.SeqCount) / float64(f.Requests()-1)
}

// RequestSizeMode returns the file's typical (modal) request size: the
// paper observes each file has a constant characteristic size.
func (f *FileStats) RequestSizeMode() int64 { return f.sizeHist.Mode() }

// Stats is the full characterization of one trace.
type Stats struct {
	Name    string
	Records int64 // data records (comments excluded)

	ReadCount  int64
	WriteCount int64
	ReadBytes  int64
	WriteBytes int64
	AsyncCount int64

	// CPUTicks and WallTicks are the trace's end-of-run clocks (from the
	// end-comment convention when present, else the last record).
	CPUTicks  trace.Ticks
	WallTicks trace.Ticks

	// SeqCount counts requests sequential with the previous request to
	// the same file.
	SeqCount int64

	SizeHist stats.Histogram
	Files    map[uint32]*FileStats
	PIDs     []uint32
}

// Compute characterizes a trace. The name labels report rows.
func Compute(name string, recs []*trace.Record) *Stats {
	a := NewAccumulator(name)
	for _, r := range recs {
		a.Add(r)
	}
	return a.Finish()
}

// Accumulator characterizes a trace incrementally, one record at a time,
// so streamed traces can be analyzed without materializing them. Feed
// every record (comments included — they carry file names and end-of-run
// clocks) to Add, then call Finish.
type Accumulator struct {
	s     *Stats
	names map[uint32]string
	pids  map[uint32]bool

	// End-of-run clocks: the last end comment wins; the last data record
	// is the fallback (the same convention trace.EndTimes applies).
	endCPU, endWall   Ticks
	endSeen           bool
	lastCPU, lastWall Ticks
}

// Ticks aliases the trace package's time unit for the accumulator fields.
type Ticks = trace.Ticks

// NewAccumulator returns an empty accumulator. The name labels report
// rows.
func NewAccumulator(name string) *Accumulator {
	return &Accumulator{
		s:     &Stats{Name: name, Files: make(map[uint32]*FileStats)},
		names: make(map[uint32]string),
		pids:  make(map[uint32]bool),
	}
}

// Add folds one record into the accumulated statistics.
func (a *Accumulator) Add(r *trace.Record) {
	s := a.s
	if r.IsComment() {
		if id, name, ok := trace.ParseFileNameComment(r.CommentText); ok {
			a.names[id] = name
		}
		if cpu, wall, ok := trace.ParseEndComment(r.CommentText); ok {
			a.endCPU, a.endWall, a.endSeen = cpu, wall, true
		}
		return
	}
	a.lastCPU, a.lastWall = r.ProcessTime, r.Start
	s.Records++
	a.pids[r.ProcessID] = true
	f := s.Files[r.FileID]
	if f == nil {
		f = &FileStats{FileID: r.FileID, FirstIO: r.ProcessTime}
		s.Files[r.FileID] = f
	}
	if r.Type.IsWrite() {
		s.WriteCount++
		s.WriteBytes += r.Length
		f.WriteCount++
		f.WriteBytes += r.Length
	} else {
		s.ReadCount++
		s.ReadBytes += r.Length
		f.ReadCount++
		f.ReadBytes += r.Length
	}
	if r.Type.IsAsync() {
		s.AsyncCount++
	}
	s.SizeHist.Add(r.Length)
	f.sizeHist.Add(r.Length)
	if f.touched && (r.Offset == f.lastEnd || (r.Offset == 0 && f.lastEnd >= f.MaxEnd)) {
		// Sequential, or a wrap back to the start after reaching the
		// file's high-water mark (the §5.3 re-read pattern).
		s.SeqCount++
		f.SeqCount++
	}
	f.lastEnd = r.End()
	f.touched = true
	if r.End() > f.MaxEnd {
		f.MaxEnd = r.End()
	}
	f.LastIO = r.ProcessTime
}

// Finish resolves file names and end-of-run clocks and returns the
// statistics. The accumulator must not be used afterwards.
func (a *Accumulator) Finish() *Stats {
	s := a.s
	for id, f := range s.Files {
		f.Name = a.names[id]
	}
	if a.endSeen {
		s.CPUTicks, s.WallTicks = a.endCPU, a.endWall
	} else {
		s.CPUTicks, s.WallTicks = a.lastCPU, a.lastWall
	}
	for pid := range a.pids {
		s.PIDs = append(s.PIDs, pid)
	}
	sort.Slice(s.PIDs, func(x, y int) bool { return s.PIDs[x] < s.PIDs[y] })
	return s
}

// TotalBytes returns bytes read + written.
func (s *Stats) TotalBytes() int64 { return s.ReadBytes + s.WriteBytes }

// CPUSeconds returns the trace's process CPU time in seconds.
func (s *Stats) CPUSeconds() float64 { return s.CPUTicks.Seconds() }

// DataSetBytes sums the observed sizes of all files accessed — the
// paper's "total data size" column.
func (s *Stats) DataSetBytes() int64 {
	var t int64
	for _, f := range s.Files {
		t += f.MaxEnd
	}
	return t
}

// MBps returns total MB transferred per CPU second (Table 1's rate: "all
// numbers are relative to CPU time, not elapsed wall clock time").
func (s *Stats) MBps() float64 { return stats.Ratio(float64(s.TotalBytes())/MB, s.CPUSeconds()) }

// IOps returns requests per CPU second.
func (s *Stats) IOps() float64 { return stats.Ratio(float64(s.Records), s.CPUSeconds()) }

// ReadMBps returns MB read per CPU second.
func (s *Stats) ReadMBps() float64 { return stats.Ratio(float64(s.ReadBytes)/MB, s.CPUSeconds()) }

// WriteMBps returns MB written per CPU second.
func (s *Stats) WriteMBps() float64 { return stats.Ratio(float64(s.WriteBytes)/MB, s.CPUSeconds()) }

// ReadIOps returns reads per CPU second.
func (s *Stats) ReadIOps() float64 { return stats.Ratio(float64(s.ReadCount), s.CPUSeconds()) }

// WriteIOps returns writes per CPU second.
func (s *Stats) WriteIOps() float64 { return stats.Ratio(float64(s.WriteCount), s.CPUSeconds()) }

// AvgKB returns the mean request size in kilobytes (KB = 1024 bytes, as
// Table 2 uses).
func (s *Stats) AvgKB() float64 {
	return stats.Ratio(float64(s.TotalBytes())/1024, float64(s.Records))
}

// RWDataRatio returns bytes read over bytes written.
func (s *Stats) RWDataRatio() float64 {
	return stats.Ratio(float64(s.ReadBytes), float64(s.WriteBytes))
}

// SeqFraction returns the fraction of requests sequential with the
// previous request to the same file.
func (s *Stats) SeqFraction() float64 {
	if s.Records <= 1 {
		return 1
	}
	return float64(s.SeqCount) / float64(s.Records-1)
}

// AsyncFraction returns the fraction of asynchronous requests.
func (s *Stats) AsyncFraction() float64 {
	return stats.Ratio(float64(s.AsyncCount), float64(s.Records))
}

// LargeFiles returns per-file stats for files crossing the large-file
// threshold, sorted by bytes moved, descending.
func (s *Stats) LargeFiles() []*FileStats {
	var out []*FileStats
	for _, f := range s.Files {
		if f.IsLarge() {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Bytes() > out[b].Bytes() })
	return out
}

// SmallFileByteShare returns the fraction of bytes moved to files below
// the large-file threshold — the §5.2 justification for ignoring them.
func (s *Stats) SmallFileByteShare() float64 {
	var small int64
	for _, f := range s.Files {
		if !f.IsLarge() {
			small += f.Bytes()
		}
	}
	return stats.Ratio(float64(small), float64(s.TotalBytes()))
}

func (s *Stats) String() string {
	return fmt.Sprintf("%s: %d I/Os, %.1f MB in %.0f CPU s (%.2f MB/s, %.1f IOs/s, r/w %.2f)",
		s.Name, s.Records, float64(s.TotalBytes())/MB, s.CPUSeconds(), s.MBps(), s.IOps(), s.RWDataRatio())
}
