package iotrace_test

import (
	"context"
	"testing"

	"iotrace"
)

// Two equivalent ways of arriving at a configuration — different option
// orders, different settings of knobs the engine ignores — must produce
// the same ScenarioKey, and configurations that simulate differently
// must never collide. This is the round-trip contract ScenarioKey's
// cache consumers (iosimd) rely on.
func TestScenarioKeyStableAcrossOptionOrder(t *testing.T) {
	fp := "wl.v1\napp/venus/1/1"
	ab := iotrace.Configure(iotrace.DefaultConfig(),
		iotrace.Volumes(4),
		iotrace.Scheduling(iotrace.SchedSCAN),
		iotrace.Striping(256<<10),
	)
	ba := iotrace.Configure(iotrace.DefaultConfig(),
		iotrace.Striping(256<<10),
		iotrace.Scheduling(iotrace.SchedSCAN),
		iotrace.Volumes(4),
	)
	ka := iotrace.Scenario{Config: ab}.Key(fp)
	kb := iotrace.Scenario{Config: ba}.Key(fp)
	if ka != kb {
		t.Errorf("option order changed the key: %s vs %s", ka, kb)
	}
	if !ka.Valid() {
		t.Errorf("key %q is not well-formed", ka)
	}

	// Result-irrelevant knobs normalize away...
	drain := iotrace.Configure(ab, iotrace.BurstBuffer(0, 99))
	if k := (iotrace.Scenario{Config: drain}).Key(fp); k != ka {
		t.Errorf("drain rate without a burst buffer changed the key: %s vs %s", k, ka)
	}
	// ...while effective knobs, the trace, and the seed offset all bite.
	small := ab
	small.CacheBytes = 4 << 20
	if k := (iotrace.Scenario{Config: small}).Key(fp); k == ka {
		t.Error("different cache size, same key")
	}
	if k := (iotrace.Scenario{Config: ab}).Key(fp + "x"); k == ka {
		t.Error("different trace fingerprint, same key")
	}
	if k := (iotrace.Scenario{Config: ab, SeedOffset: 1}).Key(fp); k == ka {
		t.Error("different seed offset, same key")
	}
	// The display name is a label, not identity.
	if k := (iotrace.Scenario{Name: "other", Config: ab}).Key(fp); k != ka {
		t.Error("scenario name leaked into the key")
	}
}

func TestScenarioKeyValid(t *testing.T) {
	for _, bad := range []iotrace.ScenarioKey{
		"", "sk-", "sk-zz", "nope",
		"sk-ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF01234567",
		"sk-../../../etc/passwd",
	} {
		if bad.Valid() {
			t.Errorf("%q validated", bad)
		}
	}
	good := iotrace.Scenario{Config: iotrace.DefaultConfig()}.Key("fp")
	if !good.Valid() {
		t.Errorf("derived key %q did not validate", good)
	}
}

// Fingerprints identify trace content, not packaging: the same records
// as a slice and as a file-backed source fingerprint differently only
// in their stated provenance, but equal workloads agree, and label or
// path changes do not matter.
func TestWorkloadFingerprint(t *testing.T) {
	path, recs := stageTrace(t, "upw", iotrace.FormatASCII)

	w1, err := iotrace.New(iotrace.Trace("a", recs))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := iotrace.New(iotrace.Trace("b", recs)) // different label
	if err != nil {
		t.Fatal(err)
	}
	f1, err := w1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := w2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("label changed the fingerprint:\n%s\nvs\n%s", f1, f2)
	}

	// Same file under two paths: identical fingerprints.
	s1, err := iotrace.New(iotrace.TraceFile("x", path, iotrace.FormatASCII))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	g2 := func() string {
		copyPath := path + ".copy"
		data, err := iotrace.LoadTraceFile(path, "ascii")
		if err != nil {
			t.Fatal(err)
		}
		if err := iotrace.SaveTraceFile(copyPath, "ascii", data); err != nil {
			t.Fatal(err)
		}
		w, err := iotrace.New(iotrace.TraceFile("y", copyPath, iotrace.FormatASCII))
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}()
	if g1 != g2 {
		t.Errorf("same bytes under two paths fingerprint differently:\n%s\nvs\n%s", g1, g2)
	}

	// Apps fingerprint by generator coordinates; seeds distinguish.
	wa, err := iotrace.New(iotrace.App("venus", 2))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := iotrace.New(iotrace.App("venus", 2), iotrace.Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	fa, err := wa.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := wb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("reseeded workload shares a fingerprint with the default")
	}

	// Streams are opaque: no fingerprint.
	ws, err := iotrace.New(iotrace.TraceStream("s", iotrace.ReadTraceFile(path, iotrace.FormatASCII)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Fingerprint(); err == nil {
		t.Error("stream-backed workload fingerprinted")
	}
}

// Sweep stamps each result with its key; cells differing only in
// result-irrelevant knobs share keys, and a stream-backed workload
// sweeps keyless but otherwise normally.
func TestSweepStampsScenarioKeys(t *testing.T) {
	w, err := iotrace.New(iotrace.App("upw", 1))
	if err != nil {
		t.Fatal(err)
	}
	scens := iotrace.Grid{CacheMB: []int64{4, 8}}.Scenarios()
	results, err := w.Sweep(context.Background(), scens, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[iotrace.ScenarioKey]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario.Name, r.Err)
		}
		if !r.Key.Valid() {
			t.Fatalf("%s: invalid key %q", r.Scenario.Name, r.Key)
		}
		if seen[r.Key] {
			t.Fatalf("%s: duplicate key %s", r.Scenario.Name, r.Key)
		}
		seen[r.Key] = true
	}

	// Re-sweeping reproduces the same keys: identity is stable.
	again, err := w.Sweep(context.Background(), scens, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Key != again[i].Key {
			t.Errorf("%s: key changed across sweeps: %s vs %s",
				results[i].Scenario.Name, results[i].Key, again[i].Key)
		}
	}

	path, _ := stageTrace(t, "upw", iotrace.FormatASCII)
	ws, err := iotrace.New(iotrace.TraceStream("s", iotrace.ReadTraceFile(path, iotrace.FormatASCII)))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ws.Sweep(context.Background(), scens[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if streamed[0].Err != nil {
		t.Fatal(streamed[0].Err)
	}
	if streamed[0].Key != "" {
		t.Errorf("stream-backed sweep produced key %q, want none", streamed[0].Key)
	}
}
