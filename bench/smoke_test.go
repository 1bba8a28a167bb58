package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// readSpec reads the repository's benchmark definition.
func readSpec(t *testing.T) (spec struct {
	benchSpec
	Workloads []struct{ Name string } `json:"workloads"`
}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json to the workloads and
// metric lists the program reports.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	for _, c := range []struct {
		label     string
		spec, got []string
	}{{"end_to_end", names(spec.EndToEnd), endToEnd}, {"per_layer", names(spec.PerLayer), perLayer}} {
		if len(c.spec) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", c.label, c.spec, c.got)
			continue
		}
		for i := range c.spec {
			if c.spec[i] != c.got[i] {
				t.Errorf("%s %d: BENCHMARK.json %q, program %q", c.label, i, c.spec[i], c.got[i])
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload, scaled down and traced, and
// checks that it is correct and reports every metric BENCHMARK.json
// names with the unit named there. The library workloads run no HTTP or
// coalescing layer, so those metrics must read 0 on them.
func TestSmokeAllWorkloads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("peak_rss_mb is read from Linux's /proc")
	}
	spec := readSpec(t)
	out := t.TempDir()
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			e := &env{seed: 7, seconds: 0.3, short: true, dir: filepath.Join(out, def.name), outDir: out}
			o, err := runWorkload(def, e, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed > 0 || o.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.errs)
			}
			for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
				got, ok := o.get(m.Name)
				if !ok {
					t.Errorf("no %s", m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
				}
			}
			for _, m := range spec.EndToEnd {
				if got, _ := o.get(m.Name); got.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if !strings.HasPrefix(def.name, "serve-") {
				for _, m := range serviceMetrics {
					if got, _ := o.get(m.Name); got.Value != 0 {
						t.Errorf("%s = %v without a service, want 0", m.Name, got.Value)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
				t.Errorf("no trace-event file: %v", err)
			}
		})
	}
}
