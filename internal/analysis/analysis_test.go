package analysis

import (
	"strings"
	"testing"

	"iotrace/internal/trace"
)

// rec builds a data record.
func rec(pid, fid uint32, off, ln int64, start, ptime trace.Ticks, write, async bool) *trace.Record {
	rt := trace.LogicalRecord
	if write {
		rt |= trace.WriteOp
	}
	if async {
		rt |= trace.AsyncOp
	}
	return &trace.Record{Type: rt, ProcessID: pid, FileID: fid,
		Offset: off, Length: ln, Start: start, Completion: 1, ProcessTime: ptime}
}

func sampleTrace() []*trace.Record {
	return []*trace.Record{
		{Type: trace.Comment, CommentText: trace.FileNameComment(1, "big.dat")},
		{Type: trace.Comment, CommentText: trace.FileNameComment(2, "params")},
		rec(1, 2, 0, 1000, 0, 0, false, false),      // small param read
		rec(1, 1, 0, 4*MB, 10, 5, false, false),     // big read
		rec(1, 1, 4*MB, 4*MB, 20, 10, false, false), // sequential
		rec(1, 1, 0, 4*MB, 30, 15, true, false),     // rewind write (wrap)
		rec(1, 1, 4*MB, 4*MB, 40, 20, true, true),   // sequential async write
		{Type: trace.Comment, CommentText: trace.EndComment(trace.TicksPerSecond, 2*trace.TicksPerSecond)},
	}
}

func TestComputeTotals(t *testing.T) {
	s := Compute("sample", sampleTrace())
	if s.Records != 5 {
		t.Fatalf("Records = %d", s.Records)
	}
	if s.ReadCount != 3 || s.WriteCount != 2 {
		t.Errorf("counts = %d/%d", s.ReadCount, s.WriteCount)
	}
	if s.ReadBytes != 8*MB+1000 || s.WriteBytes != 8*MB {
		t.Errorf("bytes = %d/%d", s.ReadBytes, s.WriteBytes)
	}
	if s.AsyncCount != 1 {
		t.Errorf("async = %d", s.AsyncCount)
	}
	if s.CPUTicks != trace.TicksPerSecond || s.WallTicks != 2*trace.TicksPerSecond {
		t.Errorf("clocks = %v/%v", s.CPUTicks, s.WallTicks)
	}
	if len(s.PIDs) != 1 || s.PIDs[0] != 1 {
		t.Errorf("PIDs = %v", s.PIDs)
	}
	// CPU time is 1 s, so rates equal totals.
	if got := s.MBps(); got < 16 || got > 16.01 {
		t.Errorf("MBps = %v", got)
	}
	if s.IOps() != 5 {
		t.Errorf("IOps = %v", s.IOps())
	}
	if s.RWDataRatio() < 1.0 || s.RWDataRatio() > 1.01 {
		t.Errorf("RWDataRatio = %v", s.RWDataRatio())
	}
	if s.AsyncFraction() != 0.2 {
		t.Errorf("AsyncFraction = %v", s.AsyncFraction())
	}
	// (8 reads + 8 writes) x 1e6 B + 1000 B over 5 records, in KiB.
	if got := s.AvgKB(); got < 3125 || got > 3126 {
		t.Errorf("AvgKB = %v", got)
	}
	if !strings.Contains(s.String(), "sample") {
		t.Errorf("String = %q", s.String())
	}
}

func TestComputeWithoutEndComment(t *testing.T) {
	tr := sampleTrace()
	tr = tr[:len(tr)-1] // drop end comment
	s := Compute("x", tr)
	// Falls back to the last record's clocks.
	if s.CPUTicks != 20 || s.WallTicks != 40 {
		t.Errorf("fallback clocks = %v/%v", s.CPUTicks, s.WallTicks)
	}
}

func TestPerFileStats(t *testing.T) {
	s := Compute("sample", sampleTrace())
	big := s.Files[1]
	if big == nil || big.Name != "big.dat" {
		t.Fatalf("file 1 = %+v", big)
	}
	if !big.IsLarge() {
		t.Error("8 MB file not large")
	}
	if big.MaxEnd != 8*MB {
		t.Errorf("MaxEnd = %d", big.MaxEnd)
	}
	if big.ReadBytes != 8*MB || big.WriteBytes != 8*MB {
		t.Errorf("file bytes = %d/%d", big.ReadBytes, big.WriteBytes)
	}
	// All 3 follow-up requests on file 1 are sequential (one via wrap).
	if big.SeqCount != 3 {
		t.Errorf("SeqCount = %d", big.SeqCount)
	}
	if big.SeqFraction() != 1 {
		t.Errorf("SeqFraction = %v", big.SeqFraction())
	}
	// 4e6-byte requests land in the [2^21, 2^22) histogram bucket.
	if big.RequestSizeMode() != 1<<21 {
		t.Errorf("RequestSizeMode = %d", big.RequestSizeMode())
	}
	small := s.Files[2]
	if small.IsLarge() {
		t.Error("1 KB file reported large")
	}
	lf := s.LargeFiles()
	if len(lf) != 1 || lf[0].FileID != 1 {
		t.Errorf("LargeFiles = %v", lf)
	}
	share := s.SmallFileByteShare()
	if share <= 0 || share > 0.001 {
		t.Errorf("SmallFileByteShare = %v", share)
	}
	if s.DataSetBytes() != 8*MB+1000 {
		t.Errorf("DataSetBytes = %d", s.DataSetBytes())
	}
}

func TestSeqFractionNonSequential(t *testing.T) {
	tr := []*trace.Record{
		rec(1, 1, 0, 1000, 0, 0, false, false),
		rec(1, 1, 50_000, 1000, 10, 5, false, false),  // jump
		rec(1, 1, 51_000, 1000, 20, 10, false, false), // sequential
	}
	s := Compute("x", tr)
	if s.SeqCount != 1 {
		t.Errorf("SeqCount = %d, want 1", s.SeqCount)
	}
	if got := s.SeqFraction(); got != 0.5 {
		t.Errorf("SeqFraction = %v, want 0.5", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	s := Compute("empty", nil)
	if s.Records != 0 || s.MBps() != 0 || s.IOps() != 0 || s.AvgKB() != 0 {
		t.Errorf("empty stats nonzero: %+v", s)
	}
	if s.SeqFraction() != 1 || s.AsyncFraction() != 0 {
		t.Error("degenerate fractions wrong")
	}
	if Table1Row(s) == "" || Table2Row(s) == "" {
		t.Error("rows must render for empty stats")
	}
}

func TestRateSeries(t *testing.T) {
	sec := trace.TicksPerSecond
	tr := []*trace.Record{
		rec(1, 1, 0, 10*MB, 0, 0, false, false),
		rec(1, 1, 10*MB, 10*MB, sec/2, sec/2, true, false),
		rec(1, 1, 20*MB, 30*MB, 3*sec, 2*sec, false, false), // CPU lags wall
	}
	both := RateSeries(tr, CPUTime, ReadsAndWrites, sec)
	if both.Len() != 3 {
		t.Fatalf("bins = %v", both.Bins())
	}
	if both.Bins()[0] != 20*MB || both.Bins()[2] != 30*MB {
		t.Errorf("CPU bins = %v", both.Bins())
	}
	wall := RateSeries(tr, WallTime, ReadsAndWrites, sec)
	if wall.Len() != 4 || wall.Bins()[3] != 30*MB {
		t.Errorf("wall bins = %v", wall.Bins())
	}
	reads := RateSeries(tr, CPUTime, ReadsOnly, sec)
	if reads.Total() != 40*MB {
		t.Errorf("read total = %v", reads.Total())
	}
	writes := RateSeries(tr, CPUTime, WritesOnly, sec)
	if writes.Total() != 10*MB {
		t.Errorf("write total = %v", writes.Total())
	}
	mbps := MBPerSecond(both)
	if mbps[0] != 20 || mbps[1] != 0 || mbps[2] != 30 {
		t.Errorf("MBps = %v", mbps)
	}
}

func TestDetectCyclePeriodic(t *testing.T) {
	// 20 cycles of 5 s: a 40 MB burst then quiet.
	var tr []*trace.Record
	sec := trace.TicksPerSecond
	for c := 0; c < 20; c++ {
		base := trace.Ticks(c * 5 * int(sec))
		for i := 0; i < 10; i++ {
			off := int64(i) * 4 * MB
			tr = append(tr, rec(1, 1, off, 4*MB, base+trace.Ticks(i*1000), base+trace.Ticks(i*1000), false, false))
		}
	}
	c := DetectCycle(tr)
	if c.PeriodSec != 5 {
		t.Errorf("period = %v, want 5", c.PeriodSec)
	}
	if c.Autocorr < 0.5 {
		t.Errorf("autocorr = %v", c.Autocorr)
	}
	if c.PeakToMean() < 2 {
		t.Errorf("peak/mean = %v, want bursty", c.PeakToMean())
	}
	if empty := DetectCycle(nil); empty.PeriodSec != 0 || empty.PeakToMean() != 0 {
		t.Errorf("empty cycle = %+v", empty)
	}
}

func TestClassify(t *testing.T) {
	sec := trace.TicksPerSecond
	total := trace.Ticks(100 * int(sec))
	var tr []*trace.Record
	// File 1: input read entirely at the start -> required.
	tr = append(tr, rec(1, 1, 0, 10*MB, 0, 0, false, false))
	// File 2: results written at the very end -> required.
	// File 3: checkpoint rewritten every 10 s -> checkpoint.
	for c := 0; c < 10; c++ {
		base := trace.Ticks(c * 10 * int(sec))
		tr = append(tr, rec(1, 3, 0, 5*MB, base+1, base+1, true, false))
	}
	// File 4: read and written throughout -> swap.
	for c := 0; c < 10; c++ {
		base := trace.Ticks(c * 10 * int(sec))
		tr = append(tr, rec(1, 4, 0, 20*MB, base+2, base+2, false, false))
		tr = append(tr, rec(1, 4, 0, 20*MB, base+3, base+3, true, false))
	}
	tr = append(tr, rec(1, 2, 0, 10*MB, total-1, total-1, true, false))
	tr = append(tr, &trace.Record{Type: trace.Comment, CommentText: trace.EndComment(total, total)})

	s := Compute("t", tr)
	if got := ClassifyFile(s.Files[1], s.CPUTicks); got != "required" {
		t.Errorf("file 1 class = %s, want required", got)
	}
	if got := ClassifyFile(s.Files[2], s.CPUTicks); got != "required" {
		t.Errorf("file 2 class = %s, want required", got)
	}
	if got := ClassifyFile(s.Files[3], s.CPUTicks); got != "checkpoint" {
		t.Errorf("file 3 class = %s, want checkpoint", got)
	}
	if got := ClassifyFile(s.Files[4], s.CPUTicks); got != "swap" {
		t.Errorf("file 4 class = %s, want swap", got)
	}
	bd := Classify(s)
	if bd.RequiredBytes != 20*MB {
		t.Errorf("required bytes = %d", bd.RequiredBytes)
	}
	if bd.CheckpointBytes != 50*MB {
		t.Errorf("checkpoint bytes = %d", bd.CheckpointBytes)
	}
	if bd.SwapBytes != 400*MB {
		t.Errorf("swap bytes = %d", bd.SwapBytes)
	}
	if bd.Total() != 470*MB {
		t.Errorf("total = %d", bd.Total())
	}
}

func TestClassifyDegenerate(t *testing.T) {
	f := &FileStats{FileID: 1, ReadCount: 1, ReadBytes: 100, MaxEnd: 100}
	if got := ClassifyFile(f, 0); got != "required" {
		t.Errorf("zero-CPU class = %s", got)
	}
}

func TestReports(t *testing.T) {
	s := Compute("sample", sampleTrace())
	if h := Table1Header(); !strings.Contains(h, "MB/sec") {
		t.Errorf("Table1Header = %q", h)
	}
	if r := Table1Row(s); !strings.Contains(r, "sample") {
		t.Errorf("Table1Row = %q", r)
	}
	if h := Table2Header(); !strings.Contains(h, "r/w") {
		t.Errorf("Table2Header = %q", h)
	}
	if r := Table2Row(s); !strings.Contains(r, "sample") {
		t.Errorf("Table2Row = %q", r)
	}
	fr := FileReport(s)
	if !strings.Contains(fr, "big.dat") {
		t.Errorf("FileReport missing file name:\n%s", fr)
	}
	if !strings.Contains(fr, "small files") {
		t.Errorf("FileReport missing small-file note:\n%s", fr)
	}
}
