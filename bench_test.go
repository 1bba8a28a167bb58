// Benchmarks regenerating every table and figure of the paper, plus the
// ablations DESIGN.md calls out. Each benchmark reports the experiment's
// key quantities as custom metrics, so `go test -bench=. -benchmem`
// doubles as the reproduction log (captured into bench_output.txt).
//
// Simulation-backed benchmarks skip under -short so CI can compile and
// smoke-run the suite without paying for full sweeps.
package iotrace_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"iotrace"
	"iotrace/internal/apps"
	"iotrace/internal/collect"
	"iotrace/internal/exp"
	"iotrace/internal/sim"
	"iotrace/internal/trace"
	"iotrace/internal/workload"
)

// --- Table 1 and Table 2 ----------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sts, err := exp.AllStats()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sts {
			if s.Name == "venus" {
				b.ReportMetric(s.MBps(), "venus-MB/s")
				b.ReportMetric(s.IOps(), "venus-IOs/s")
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sts, err := exp.AllStats()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sts {
			if s.Name == "forma" {
				b.ReportMetric(s.RWDataRatio(), "forma-r/w")
			}
		}
	}
}

// --- Figures 3 and 4 ---------------------------------------------------

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.Figure3Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Cycle.PeakMBps, "peak-MB/s")
		b.ReportMetric(f.Cycle.MeanMBps, "mean-MB/s")
		b.ReportMetric(f.Cycle.PeriodSec, "period-s")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.Figure4Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Cycle.PeakMBps, "peak-MB/s")
		b.ReportMetric(f.Cycle.MeanMBps, "mean-MB/s")
		b.ReportMetric(f.Cycle.PeriodSec, "period-s")
	}
}

// --- Figures 6, 7, 8 ----------------------------------------------------

func BenchmarkFigure6(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		f, err := exp.Figure6Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Result.IdleSeconds(), "idle-s")
		b.ReportMetric(float64(f.Result.Disk.ReadBytes)/1e6, "disk-read-MB")
	}
}

func BenchmarkFigure7(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		f, err := exp.Figure7Data()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Result.Cache.ReadHitRatio(), "ssd-hit-ratio")
		b.ReportMetric(float64(f.Result.Disk.ReadBytes)/1e6, "disk-read-MB")
		b.ReportMetric(float64(f.Result.Disk.WriteBytes)/1e6, "disk-write-MB")
	}
}

func BenchmarkFigure8(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		pts, err := exp.Figure8Data(exp.DefaultFigure8Sizes(), exp.DefaultFigure8Blocks())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.BlockKB == 4 && (p.CacheMB == 4 || p.CacheMB == 256) {
				b.ReportMetric(p.IdleSec, "idle-s-"+itoa(p.CacheMB)+"MB")
			}
		}
	}
}

// --- Headlines and ablations --------------------------------------------

func BenchmarkWriteBehindAblation(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r, err := exp.WriteBehindData()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IdleOffSec, "idle-off-s")
		b.ReportMetric(r.IdleOnSec, "idle-on-s")
		b.ReportMetric(r.Improvement(), "improvement-x")
	}
}

func BenchmarkSSDUtilization(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.SSDUtilizationData(apps.Names())
		if err != nil {
			b.Fatal(err)
		}
		minU, over99 := 1.0, 0
		for _, r := range rows {
			if r.Utilization < minU {
				minU = r.Utilization
			}
			if r.Utilization > 0.99 {
				over99++
			}
		}
		b.ReportMetric(100*minU, "min-util-%")
		b.ReportMetric(float64(over99), "apps-over-99%")
	}
}

func BenchmarkCacheLocality(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.CacheLocalityData()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HitRatio, r.App+"-hit-ratio")
		}
	}
}

func BenchmarkBufferLimitAblation(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		pts, err := exp.BufferLimitData([]int64{16, 64}, []int{0, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			name := "idle-s-" + itoa(p.CacheMB) + "MB-cap"
			if p.LimitDiv == 0 {
				name = "idle-s-" + itoa(p.CacheMB) + "MB-free"
			}
			b.ReportMetric(p.IdleSec, name)
		}
	}
}

func BenchmarkNPlusOne(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		pts, err := exp.NPlusOneData(2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(100*p.Utilization, "util-%-"+itoa(int64(p.Copies))+"copies")
		}
	}
}

func BenchmarkQueueingAblation(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		r, err := exp.QueueingAblationData()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WallNoQueueSec, "wall-s-noqueue")
		b.ReportMetric(r.WallQueueSec, "wall-s-fcfs")
	}
}

// --- Trace format and collection ----------------------------------------

func BenchmarkASCIIvsBinary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.TraceFormatSizesData("venus")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.ASCII), "ascii-bytes")
		b.ReportMetric(float64(f.Binary), "binary-bytes")
		b.ReportMetric(float64(f.Binary)/float64(f.ASCII), "binary/ascii")
	}
}

func BenchmarkCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.TraceFormatSizesData("les")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.CompressionRatio(), "compressed/raw")
	}
}

func BenchmarkCollectionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.CollectionOverheadData("venus")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Overhead.Fraction(), "overhead-%")
		b.ReportMetric(float64(r.Rebuild.MaxBuffered), "max-buffered")
	}
}

// --- Microbenchmarks: substrate throughput -------------------------------

func venusTrace(b *testing.B) []*trace.Record {
	b.Helper()
	spec, err := apps.Lookup("venus")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := workload.Generate(spec.Build(apps.DefaultSeed("venus"), 1))
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

func BenchmarkGenerateVenus(b *testing.B) {
	spec, err := apps.Lookup("venus")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(spec.Build(apps.DefaultSeed("venus"), 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceEncodeASCII(b *testing.B) {
	recs := venusTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, trace.FormatASCII, recs); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkTraceDecodeASCII measures the sustained decode path — the
// scanner plus codec that every consumer (streamed simulation replay,
// TraceSource loads, characterization) sits on. Reader.Next reuses one
// record; the constant allocs/op are per-iteration Reader setup (bufio
// window, decompressor history), not per record.
func BenchmarkTraceDecodeASCII(b *testing.B) {
	recs := venusTrace(b)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, trace.FormatASCII, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := trace.NewReader(bytes.NewReader(data), trace.FormatASCII)
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("decoded %d of %d records", n, len(recs))
		}
	}
}

// BenchmarkImportCSV measures the CSV importer's sustained decode path —
// line scan, in-place field spans, fixed-point time parse, file/proc
// interning — over a site-log-shaped table. Next reuses one record; the
// constant allocs/op are per-iteration decoder setup (bufio window,
// intern maps), not per row. SetBytes reports importer throughput on
// the raw CSV bytes.
func BenchmarkImportCSV(b *testing.B) {
	var sb bytes.Buffer
	sb.WriteString("time,op,file,bytes,duration\n")
	for i := 0; i < 50000; i++ {
		op := "read"
		if i%3 == 0 {
			op = "write"
		}
		fmt.Fprintf(&sb, "%d.%02d,%s,/data/file%d,%d,0.%03d\n",
			i/100, i%100, op, i%16, 4096*(1+i%4), i%10)
	}
	data := sb.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := trace.NewDecoder(bytes.NewReader(data), trace.FormatCSV, trace.DecodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var rec trace.Record
		n := 0
		for {
			err := dec.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 50016 { // 50000 rows + 16 file comments
			b.Fatalf("decoded %d records", n)
		}
	}
}

// BenchmarkTraceDecodeASCIIMaterialize additionally retains every record
// (ReadAll's chunk-arena clones), the cost a sweep pays once per
// TraceSource rather than once per scenario.
func BenchmarkTraceDecodeASCIIMaterialize(b *testing.B) {
	recs := venusTrace(b)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, trace.FormatASCII, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadAll(bytes.NewReader(data), trace.FormatASCII); err != nil {
			b.Fatal(err)
		}
	}
}

// fileSweep stages a venus trace on disk once and sweeps a Figure 8-
// style cache grid over it, with the trace either re-decoded per
// scenario (TraceStream) or decoded once and fanned out (TraceFile).
// The pair quantifies what the decode-once source amortizes.
func fileSweep(b *testing.B, shared bool) {
	b.Helper()
	recs := venusTrace(b)
	path := b.TempDir() + "/venus.trace"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteAll(f, trace.FormatASCII, recs); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	grid := iotrace.Grid{CacheMB: []int64{4, 16, 64, 256}, WriteBehind: []bool{true, false}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &iotrace.Workload{}
		if shared {
			w.AddTraceFile("venus", path, iotrace.FormatASCII)
		} else {
			w.AddTraceStream("venus", iotrace.ReadTraceFile(path, iotrace.FormatASCII))
		}
		results, err := w.Sweep(context.Background(), grid.Scenarios(), 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkFileSweepShared(b *testing.B) {
	skipIfShort(b)
	fileSweep(b, true)
}

func BenchmarkFileSweepStreamed(b *testing.B) {
	skipIfShort(b)
	fileSweep(b, false)
}

func BenchmarkSimulateVenusPair(b *testing.B) {
	skipIfShort(b)
	spec, err := apps.Lookup("venus")
	if err != nil {
		b.Fatal(err)
	}
	t1, err := workload.Generate(spec.Build(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	t2, err := workload.Generate(spec.Build(2, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("a", t1); err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("b", t2); err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WallSeconds(), "simulated-s")
	}
}

// BenchmarkScheduledVolume drives the scheduler dispatch path end to
// end: the ccm pair on a striped 4-volume array with SSTF queueing, so
// every disk request goes through placement split, per-volume enqueue,
// policy pick, and the diskReq join. TestHotPathAllocCeilings caps its
// allocs/op.
func BenchmarkScheduledVolume(b *testing.B) {
	skipIfShort(b)
	spec, err := apps.Lookup("ccm")
	if err != nil {
		b.Fatal(err)
	}
	t1, err := workload.Generate(spec.Build(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	t2, err := workload.Generate(spec.Build(2, 2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.NumVolumes = 4
	cfg.StripeUnitBytes = 64 << 10
	cfg.DiskQueueing = true
	cfg.Scheduler = sim.SchedSSTF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("a", t1); err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("b", t2); err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WallSeconds(), "simulated-s")
	}
}

// BenchmarkCongestedPair drives the shared-backbone path end to end:
// the ccm pair behind a congested 40 MB/s link under fair sharing, so
// every cache<->volume transfer goes through enqueue, rate-sharing
// epochs (the repost-heavy scheduler), and pooled-transfer completion.
// TestHotPathAllocCeilings caps its allocs/op.
func BenchmarkCongestedPair(b *testing.B) {
	skipIfShort(b)
	spec, err := apps.Lookup("ccm")
	if err != nil {
		b.Fatal(err)
	}
	t1, err := workload.Generate(spec.Build(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	t2, err := workload.Generate(spec.Build(2, 2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.BackboneMBps = 40
	cfg.BackboneSched = sim.BackboneFairShare
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("a", t1); err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("b", t2); err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WallSeconds(), "simulated-s")
	}
}

// BenchmarkDegradedPair drives the fault-injection path end to end:
// the ccm pair in write-through mode under a plan that takes the
// volume down mid-run and then degrades it to half speed, so requests
// go through hold/retry (the pooled retry FIFO), frozen-service
// banking, flusher recovery, and slow-factor recomputation.
// TestHotPathAllocCeilings caps its allocs/op.
func BenchmarkDegradedPair(b *testing.B) {
	skipIfShort(b)
	spec, err := apps.Lookup("ccm")
	if err != nil {
		b.Fatal(err)
	}
	t1, err := workload.Generate(spec.Build(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	t2, err := workload.Generate(spec.Build(2, 2))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sim.ParseFaultPlan("vol0:down@30s+20s,vol0:slow2x@100s+150s")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WriteBehind = false // every write meets the faulted volume
	cfg.Faults = plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("a", t1); err != nil {
			b.Fatal(err)
		}
		if err := s.AddProcess("b", t2); err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WallSeconds(), "simulated-s")
		b.ReportMetric(res.DegradedSec, "degraded-s")
	}
}

func BenchmarkCollectPipeline(b *testing.B) {
	recs := venusTrace(b)
	var data []*trace.Record
	for _, r := range recs {
		if !r.IsComment() {
			data = append(data, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebuilt, _, _ := collect.Collect(data, collect.DefaultOptions())
		if len(rebuilt) != len(data) {
			b.Fatal("reconstruction lost records")
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// skipIfShort skips simulation-backed benchmarks in short mode.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("simulation benchmark: skipped in -short mode")
	}
}

// TestHotPathAllocCeilings runs the hot-path benchmarks above and fails
// when one allocates more per op than its ceiling: the simulator's event
// loop under the default, scheduled, congested and degraded configs,
// the ASCII trace decoder and the CSV importer. Every leg runs a fixed
// ceilingOps ops rather than for a benchtime, so a stray allocation
// outside the code under test is divided by the same count on a fast
// or a slow runner. A count still moves up by a few allocations from
// run to run, so each ceiling is the highest count seen over repeated
// runs, and a leg over its ceiling is measured up to three times and
// judged by its lowest count: an allocation the code makes shows in
// every run. Time is not gated here: scripts/bench_ab.sh compares it
// against the base commit on one machine.
func TestHotPathAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation benchmarks: skipped in -short mode")
	}
	const ceilingOps = "4x"
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set(ceilingOps); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { benchtime.Set(prev) })
	for _, c := range []struct {
		name    string
		bench   func(*testing.B)
		ceiling int64
	}{
		{"SimulateVenusPair", BenchmarkSimulateVenusPair, 515},
		{"ScheduledVolume", BenchmarkScheduledVolume, 289},
		{"CongestedPair", BenchmarkCongestedPair, 254},
		{"DegradedPair", BenchmarkDegradedPair, 249},
		{"TraceDecodeASCII", BenchmarkTraceDecodeASCII, 18},
		{"ImportCSV", BenchmarkImportCSV, 71},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := int64(math.MaxInt64)
			for try := 0; try < 3 && got > c.ceiling; try++ {
				r := testing.Benchmark(c.bench)
				if r.N == 0 {
					t.Fatal("benchmark failed or did not run")
				}
				t.Logf("%d allocs/op over %d ops (ceiling %d)", r.AllocsPerOp(), r.N, c.ceiling)
				got = min(got, r.AllocsPerOp())
			}
			if got > c.ceiling {
				t.Errorf("%d allocs/op, over the ceiling of %d", got, c.ceiling)
			}
		})
	}
}
