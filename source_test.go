package iotrace_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iotrace"
)

// stageTrace writes app instance 0 to a temp trace file and returns the
// path plus the records it was written from.
func stageTrace(t *testing.T, app string, format iotrace.Format) (string, []*iotrace.Record) {
	t.Helper()
	recs, err := iotrace.AppRecords(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app+".trace")
	if _, err := iotrace.WriteTraceFile(path, format, iotrace.RecordSeq(recs)); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

func TestTraceSourceIsLazyAndDecodesOnce(t *testing.T) {
	path, recs := stageTrace(t, "upw", iotrace.FormatASCII)
	src := iotrace.NewTraceSource(path, iotrace.WithFormat(iotrace.FormatASCII))
	if src.Decodes() != 0 {
		t.Fatalf("constructor decoded %d times; want lazy", src.Decodes())
	}
	if src.Path() != path {
		t.Errorf("Path() = %q, want %q", src.Path(), path)
	}

	w, err := iotrace.New(iotrace.Source("upw", src))
	if err != nil {
		t.Fatal(err)
	}
	if src.Decodes() != 0 {
		t.Fatalf("building a workload decoded %d times; want lazy", src.Decodes())
	}
	if w.Procs[0].Records != nil {
		t.Error("source-backed process materialized into Process.Records")
	}

	// A sweep wide enough to exercise several workers decodes once.
	grid := iotrace.Grid{CacheMB: []int64{4, 8, 16, 32}, WriteBehind: []bool{true, false}}
	results, err := w.Sweep(context.Background(), grid.Scenarios(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
		}
	}
	if src.Decodes() != 1 {
		t.Fatalf("8-scenario sweep decoded the trace %d times, want exactly 1", src.Decodes())
	}

	// Characterize and Simulate reuse the same decode...
	if _, err := w.Characterize(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Simulate(iotrace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if src.Decodes() != 1 {
		t.Fatalf("later consumers re-decoded (%d total), want 1", src.Decodes())
	}

	// ...to the point that deleting the file no longer matters.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	again, err := w.Sweep(context.Background(), grid.Scenarios(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if again[i].Err != nil {
			t.Fatalf("%s after file removal: %v", again[i].Scenario.Name, again[i].Err)
		}
		if renderResult(results[i].Result) != renderResult(again[i].Result) {
			t.Fatalf("%s: results differ across sweeps of the same source", results[i].Scenario.Name)
		}
	}

	// The source still serves full record streams, comments included.
	got, err := iotrace.Materialize(src.Records())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("source streams %d records, wrote %d", len(got), len(recs))
	}
}

func TestSourceWorkloadMatchesSliceAndStream(t *testing.T) {
	path, recs := stageTrace(t, "upw", iotrace.FormatBinary)

	slice, err := iotrace.New(iotrace.Trace("upw", recs))
	if err != nil {
		t.Fatal(err)
	}
	sourced, err := iotrace.New(iotrace.TraceFile("upw", path, iotrace.FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := iotrace.New(iotrace.TraceStream("upw", iotrace.ReadTraceFile(path, iotrace.FormatBinary)))
	if err != nil {
		t.Fatal(err)
	}

	ss, err := slice.Characterize()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sourced.Characterize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss, cs) {
		t.Errorf("source characterization differs from slice:\n%v\nvs\n%v", cs, ss)
	}

	cfg := iotrace.DefaultConfig()
	want, err := slice.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*iotrace.Workload{"source": sourced, "stream": streamed} {
		got, err := w.Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := renderResult(want), renderResult(got); a != b {
			t.Errorf("%s simulation differs from slice simulation:\n%s\nvs\n%s", name, b, a)
		}
	}
}

func TestSourceSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	path, _ := stageTrace(t, "upw", iotrace.FormatASCII)
	src := iotrace.NewTraceSource(path, iotrace.WithFormat(iotrace.FormatASCII))
	w, err := iotrace.New(
		iotrace.Source("upw", src),
		iotrace.App("bvi", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	scens := iotrace.Grid{CacheMB: []int64{4, 64}, WriteBehind: []bool{true, false}}.Scenarios()
	serial, err := w.Sweep(context.Background(), scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := w.Sweep(context.Background(), scens, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sweepRender(t, serial), sweepRender(t, parallel); a != b {
		t.Errorf("workers=4 diverged from workers=1 on a source-backed sweep:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	if src.Decodes() != 1 {
		t.Errorf("two sweeps decoded the trace %d times, want 1", src.Decodes())
	}
}

// TestSourceBehindStreamDecodesOnceInSweep covers a workload with no
// fingerprint: the streamed process makes Fingerprint return before it
// reaches the source, so no decode happens before the workers start and
// the first scenarios race to trigger it. The source must still decode
// exactly once, and the sweep must render the same at any pool width.
func TestSourceBehindStreamDecodesOnceInSweep(t *testing.T) {
	streamed, err := iotrace.AppRecords("upw", 0)
	if err != nil {
		t.Fatal(err)
	}
	sourced, err := iotrace.AppRecords("upw", 1) // its own pid
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upw1.trace")
	if _, err := iotrace.WriteTraceFile(path, iotrace.FormatASCII, iotrace.RecordSeq(sourced)); err != nil {
		t.Fatal(err)
	}
	scens := iotrace.Grid{CacheMB: []int64{4, 16}, WriteBehind: []bool{true, false}}.Scenarios()

	var renders []string
	for _, workers := range []int{4, 1} {
		src := iotrace.NewTraceSource(path, iotrace.WithFormat(iotrace.FormatASCII))
		w, err := iotrace.New(
			iotrace.TraceStream("stream", iotrace.RecordSeq(streamed)),
			iotrace.Source("src", src),
		)
		if err != nil {
			t.Fatal(err)
		}
		results, err := w.Sweep(context.Background(), scens, workers)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Key != "" {
			t.Fatalf("workers=%d: stream-backed workload got key %q", workers, results[0].Key)
		}
		if got := src.Decodes(); got != 1 {
			t.Errorf("workers=%d: source decoded %d times, want 1", workers, got)
		}
		renders = append(renders, sweepRender(t, results))
	}
	if renders[0] != renders[1] {
		t.Errorf("workers=4 diverged from workers=1:\n--- 4 ---\n%s--- 1 ---\n%s", renders[0], renders[1])
	}
}

func TestSourceErrorsSurfaceFromConsumers(t *testing.T) {
	missing := iotrace.NewTraceSource(filepath.Join(t.TempDir(), "nope.trace"), iotrace.WithFormat(iotrace.FormatASCII))
	w, err := iotrace.New(iotrace.Source("ghost", missing))
	if err != nil {
		t.Fatalf("lazy source failed at build time: %v", err)
	}
	if _, err := w.Simulate(iotrace.DefaultConfig()); err == nil {
		t.Error("simulating a missing trace file succeeded")
	}
	if _, err := w.Characterize(); err == nil {
		t.Error("characterizing a missing trace file succeeded")
	}
	results, err := w.Sweep(context.Background(), []iotrace.Scenario{{Name: "solo", Config: iotrace.DefaultConfig()}}, 2)
	if err != nil {
		t.Fatalf("sweep-level error %v for a scenario-level failure", err)
	}
	if results[0].Err == nil {
		t.Error("sweep scenario over a missing trace file succeeded")
	}

	// Corrupt bytes: the decode error is sticky and names the file.
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := iotrace.NewTraceSource(bad, iotrace.WithFormat(iotrace.FormatASCII))
	wb, err := iotrace.New(iotrace.Source("bad", src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Simulate(iotrace.DefaultConfig()); err == nil || !strings.Contains(err.Error(), "bad.trace") {
		t.Errorf("corrupt-source error = %v, want one naming the file", err)
	}
	if _, err := wb.Simulate(iotrace.DefaultConfig()); err == nil {
		t.Error("sticky decode error did not resurface")
	}
	if src.Decodes() != 0 {
		t.Errorf("failing source counted %d decodes, want 0 (failed decodes do not count)", src.Decodes())
	}

	if _, err := iotrace.New(iotrace.Source("nil", nil)); err == nil {
		t.Error("nil source accepted")
	}
}

// Regression: a failed decode must not count in Decodes(). The counter
// pins the decode-once contract — "how many times was this file
// successfully decoded" — and a sticky failure used to report 1, as if
// a decode had produced records.
func TestFailedDecodeDoesNotCount(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("garbage, not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := iotrace.NewTraceSource(bad, iotrace.WithFormat(iotrace.FormatASCII))
	for i := 0; i < 3; i++ {
		if _, err := iotrace.Materialize(src.Records()); err == nil {
			t.Fatal("corrupt trace decoded successfully")
		}
		if n := src.Decodes(); n != 0 {
			t.Fatalf("after %d failed uses Decodes() = %d, want 0", i+1, n)
		}
	}

	// A missing file behaves the same: the attempt never decodes.
	missing := iotrace.NewTraceSource(filepath.Join(t.TempDir(), "nope.trace"))
	if _, err := missing.ContentDigest(); err == nil {
		t.Fatal("digesting a missing file succeeded")
	}
	if n := missing.Decodes(); n != 0 {
		t.Fatalf("missing file counted %d decodes, want 0", n)
	}
}

// The content digest is a property of the file bytes alone: same bytes
// under two names share it, different bytes do not.
func TestSourceContentDigest(t *testing.T) {
	path, recs := stageTrace(t, "upw", iotrace.FormatASCII)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(t.TempDir(), "copy.trace")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	a := iotrace.NewTraceSource(path, iotrace.WithFormat(iotrace.FormatASCII))
	b := iotrace.NewTraceSource(copyPath, iotrace.WithFormat(iotrace.FormatASCII))
	da, err := a.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("identical bytes, different digests: %s vs %s", da, db)
	}
	if len(da) != 64 {
		t.Errorf("digest %q is not 64 hex chars", da)
	}

	// A different encoding of the same records is different content.
	binPath := filepath.Join(t.TempDir(), "upw.bin")
	if _, err := iotrace.WriteTraceFile(binPath, iotrace.FormatBinary, iotrace.RecordSeq(recs)); err != nil {
		t.Fatal(err)
	}
	c := iotrace.NewTraceSource(binPath, iotrace.WithFormat(iotrace.FormatBinary))
	dc, err := c.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if dc == da {
		t.Error("binary and ASCII encodings share a content digest")
	}

	// The digest pass does not break decode-once.
	if _, err := iotrace.Materialize(a.Records()); err != nil {
		t.Fatal(err)
	}
	if a.Decodes() != 1 {
		t.Errorf("digest+records decoded %d times, want 1", a.Decodes())
	}
}
