package apps

import (
	"math"
	"testing"

	"iotrace/internal/analysis"
	"iotrace/internal/workload"
)

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func buildStats(t *testing.T, name string) *analysis.Stats {
	t.Helper()
	m, err := Build(name)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return analysis.Compute(name, recs)
}

// TestCalibrationAgainstPaperTables is the load-bearing test of the
// substitution: every generated trace must land within
// CalibrationTolerance of the paper's published (reconciled) statistics.
func TestCalibrationAgainstPaperTables(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p := spec.Paper
			s := buildStats(t, name)

			check := func(metric string, got, want float64) {
				if e := relErr(got, want); e > CalibrationTolerance {
					t.Errorf("%s: got %.4g, paper %.4g (err %.1f%%)", metric, got, want, 100*e)
				}
			}
			check("running time (s)", s.CPUSeconds(), p.RunningSec)
			check("data set (MB)", float64(s.DataSetBytes())/MB, p.DataSetMB)
			check("total I/O (MB)", float64(s.TotalBytes())/MB, p.TotalIOMB)
			check("number of I/Os", float64(s.Records), p.NumIOs)
			check("avg I/O size (KB)", s.AvgKB(), p.AvgKB)
			check("MB/sec", s.MBps(), p.MBps)
			check("IOs/sec", s.IOps(), p.IOps)
			check("read MB/sec", s.ReadMBps(), p.ReadMBps)
			check("write MB/sec", s.WriteMBps(), p.WriteMBps)
			check("read IOs/sec", s.ReadIOps(), p.ReadIOps)
			check("write IOs/sec", s.WriteIOps(), p.WriteIOps)
			check("r/w data ratio", s.RWDataRatio(), p.RWDataRatio)
		})
	}
}

// TestPaperTableInternalConsistency guards the reconciled targets
// themselves: rate x time must reproduce the totals we claim.
func TestPaperTableInternalConsistency(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Lookup(name)
		p := spec.Paper
		if e := relErr(p.MBps*p.RunningSec, p.TotalIOMB); e > 0.05 {
			t.Errorf("%s: MBps x sec = %.1f disagrees with TotalIOMB %.1f", name, p.MBps*p.RunningSec, p.TotalIOMB)
		}
		if e := relErr(p.IOps*p.RunningSec, p.NumIOs); e > 0.05 {
			t.Errorf("%s: IOps x sec = %.0f disagrees with NumIOs %.0f", name, p.IOps*p.RunningSec, p.NumIOs)
		}
		if e := relErr(p.ReadMBps+p.WriteMBps, p.MBps); e > 0.05 {
			t.Errorf("%s: directional rates sum to %.3g, not MBps %.3g", name, p.ReadMBps+p.WriteMBps, p.MBps)
		}
		if p.WriteMBps > 0 {
			if e := relErr(p.ReadMBps/p.WriteMBps, p.RWDataRatio); e > 0.06 {
				t.Errorf("%s: directional rates give r/w %.3g, not %.3g", name, p.ReadMBps/p.WriteMBps, p.RWDataRatio)
			}
		}
	}
}

func TestHighSequentiality(t *testing.T) {
	// §5: accesses are "highly sequential and very regular". Every model
	// must generate a trace dominated by sequential requests.
	for _, name := range Names() {
		s := buildStats(t, name)
		if f := s.SeqFraction(); f < 0.85 {
			t.Errorf("%s: sequential fraction %.2f, want >= 0.85", name, f)
		}
	}
}

func TestOnlyLESIsAsync(t *testing.T) {
	// les "was the only program that used asynchronous reads and writes
	// explicitly" (§6.2).
	for _, name := range Names() {
		s := buildStats(t, name)
		if name == "les" {
			if s.AsyncFraction() != 1 {
				t.Errorf("les async fraction = %v, want 1", s.AsyncFraction())
			}
		} else if s.AsyncFraction() != 0 {
			t.Errorf("%s async fraction = %v, want 0", name, s.AsyncFraction())
		}
	}
}

func TestCyclicDemand(t *testing.T) {
	// §5.3: I/O comes in cycles matching algorithm iterations. The
	// high-rate applications must show strong periodicity at roughly
	// their designed cycle lengths.
	cases := map[string]struct {
		wantPeriodLo, wantPeriodHi float64 // seconds
	}{
		"venus": {3, 8},  // 75 cycles over ~379 s -> ~5 s
		"les":   {9, 16}, // 12 cycles over ~146 s -> ~12 s
		"ccm":   {2, 7},  // 50 cycles over ~205 s -> ~4 s
		"forma": {3, 8},  // 40 cycles over ~206 s -> ~5 s
		"bvi":   {9, 17}, // 100 cycles over ~1258 s -> ~12.6 s
	}
	for name, want := range cases {
		m, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := workload.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		c := analysis.DetectCycle(recs)
		// Autocorrelation may lock onto the second harmonic when the true
		// period is a non-integral number of 1-second bins; accept either.
		inBand := func(p float64) bool { return p >= want.wantPeriodLo && p <= want.wantPeriodHi }
		if !inBand(c.PeriodSec) && !inBand(c.PeriodSec/2) {
			t.Errorf("%s: detected period %.1f s, want in [%.0f, %.0f] (or its double)", name, c.PeriodSec, want.wantPeriodLo, want.wantPeriodHi)
		}
		if c.Autocorr < 0.2 {
			t.Errorf("%s: weak periodicity (autocorr %.2f)", name, c.Autocorr)
		}
	}
}

func TestBurstyDemand(t *testing.T) {
	// Figures 3 and 4 show peak rates about twice the mean for the
	// staging applications.
	for _, name := range []string{"venus", "les"} {
		m, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := workload.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		c := analysis.DetectCycle(recs)
		if r := c.PeakToMean(); r < 1.5 || r > 5 {
			t.Errorf("%s: peak/mean = %.2f, want bursty (1.5..5)", name, r)
		}
	}
}

func TestCompulsoryOnlyApps(t *testing.T) {
	// gcm and upw "only do compulsory I/O" (§5.1): the class heuristic
	// must attribute (nearly) all their bytes to required I/O.
	for _, name := range []string{"gcm", "upw"} {
		s := buildStats(t, name)
		bd := analysis.Classify(s)
		reqFrac := float64(bd.RequiredBytes) / float64(bd.Total())
		if reqFrac < 0.95 {
			t.Errorf("%s: required fraction %.2f, want >= 0.95 (breakdown %+v)", name, reqFrac, bd)
		}
	}
	// venus, by contrast, is dominated by swap I/O.
	s := buildStats(t, "venus")
	bd := analysis.Classify(s)
	if frac := float64(bd.SwapBytes) / float64(bd.Total()); frac < 0.9 {
		t.Errorf("venus: swap fraction %.2f, want >= 0.9 (breakdown %+v)", frac, bd)
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"venus", "gcm"} {
		m1, _ := Build(name)
		m2, _ := Build(name)
		r1, err := workload.Generate(m1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := workload.Generate(m2)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%s: lengths differ: %d vs %d", name, len(r1), len(r2))
		}
		for i := range r1 {
			if *r1[i] != *r2[i] {
				t.Fatalf("%s: record %d differs between identical builds", name, i)
			}
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	spec, _ := Lookup("venus")
	r1, err := workload.Generate(spec.Build(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := workload.Generate(spec.Build(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1 {
		if i >= len(r2) || *r1[i] != *r2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("expected 7 applications, got %v", names)
	}
	want := []string{"bvi", "ccm", "forma", "gcm", "les", "upw", "venus"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %s, want %s", i, names[i], n)
		}
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Error("Lookup accepted unknown name")
	}
	if _, err := Build("nosuch"); err == nil {
		t.Error("Build accepted unknown name")
	}
	if DefaultSeed("venus") == DefaultSeed("les") {
		t.Error("per-app seeds collide")
	}
	for _, n := range names {
		spec, _ := Lookup(n)
		if spec.Paper.Name != n {
			t.Errorf("paper target name %q does not match registry key %q", spec.Paper.Name, n)
		}
		m := spec.Build(1, 3)
		if m.PID != 3 || m.Seed != 1 {
			t.Errorf("%s: Build did not apply seed/pid", n)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: model invalid: %v", n, err)
		}
	}
}
