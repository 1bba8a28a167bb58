package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest parent/change run pairs compare accepts.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is compare's judgement of one metric on one workload.
type verdict struct {
	n              int
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins           int // pairs the change (B) won; ties count for neither
	status         string
}

// judge applies the comparison rules to paired samples a (parent) and b
// (change). The change claims a gain only when it wins at least nine
// tenths of the pairs and the medians differ by more than the parent's
// interquartile distance. A metric with a bound is "regressed" when the
// change's median is worse by more than the bound, and "unresolved"
// when either side's spread exceeds the bound, unless every run of the
// change beats every run of the parent. bound < 0 means none.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	v := verdict{n: len(a), medA: median(a), medB: median(b)}
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	gain := 10*v.wins >= 9*v.n && better(v.medB, v.medA) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A
	switch {
	case gain:
		v.status = "gain"
	case bound < 0:
		v.status = "no claim"
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		v.status = "unresolved"
	case better(v.medA, v.medB) && math.Abs(v.medB-v.medA) > bound*math.Abs(v.medA):
		v.status = "regressed"
	default:
		v.status = "within bound"
	}
	return v
}

// runsOf returns the runs of one workload and tracing mode, oldest first.
func runsOf(rf resultsFile, workload string, traced bool) []runRecord {
	var out []runRecord
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Traced == traced {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started.Before(out[j].Started) })
	return out
}

// alternating reports whether the two sides' runs interleave in time,
// each pair's runs adjacent, so drift on the machine hits both sides.
func alternating(a, b []runRecord) bool {
	type ev struct {
		side int
		r    runRecord
	}
	var evs []ev
	for _, r := range a {
		evs = append(evs, ev{0, r})
	}
	for _, r := range b {
		evs = append(evs, ev{1, r})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].r.Started.Before(evs[j].r.Started) })
	for i := 0; i+1 < len(evs); i += 2 {
		if evs[i].side == evs[i+1].side {
			return false
		}
	}
	return true
}

// matchedPairs checks that the two runs of every pair measured the same
// inputs for the same time, so that runs left in a results file by an
// earlier session cannot be paired with today's.
func matchedPairs(a, b []runRecord) error {
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Seconds != b[i].Seconds {
			return fmt.Errorf("pair %d ran seed %d for %gs on the parent but seed %d for %gs on the change (start each comparison from empty results files)",
				i, a[i].Seed, a[i].Seconds, b[i].Seed, b[i].Seconds)
		}
	}
	return nil
}

// compareCmd is `bench compare [-bench BENCHMARK.json] A.json B.json`: A
// holds the parent's runs, B the change's, at least minPairs of each per
// workload, run in alternating order.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare takes two results files, parent then change")
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		return err
	}
	var a, b resultsFile
	if err := readJSON(fs.Arg(0), &a); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\twins\tstatus")
	regressed, compared := 0, 0
	for _, wd := range workloads {
		for _, traced := range []bool{false, true} {
			metrics := spec.EndToEnd
			if traced {
				metrics = spec.PerLayer
			}
			ra, rb := runsOf(a, wd.name, traced), runsOf(b, wd.name, traced)
			if len(ra) == 0 && len(rb) == 0 {
				continue
			}
			n := min(len(ra), len(rb))
			if n < minPairs {
				return fmt.Errorf("%s (traced %v): %d parent and %d change runs; compare needs %d pairs", wd.name, traced, len(ra), len(rb), minPairs)
			}
			ra, rb = ra[:n], rb[:n]
			if !alternating(ra, rb) {
				return fmt.Errorf("%s (traced %v): parent and change runs do not alternate", wd.name, traced)
			}
			if err := matchedPairs(ra, rb); err != nil {
				return fmt.Errorf("%s (traced %v): %w", wd.name, traced, err)
			}
			compared++
			for _, m := range metrics {
				va, vb := make([]float64, n), make([]float64, n)
				for i := 0; i < n; i++ {
					va[i], vb[i] = ra[i].Metrics[m.Name].Value, rb[i].Metrics[m.Name].Value
				}
				bound := m.Bound
				if traced {
					bound = -1
				}
				v := judge(va, vb, m.Better == "higher", bound)
				if v.status == "regressed" {
					regressed++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
					wd.name, m.Name, m.Unit, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, v.wins, v.n, v.status)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if compared == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bounds", regressed)
	}
	return nil
}
