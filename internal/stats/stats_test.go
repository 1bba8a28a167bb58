package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 || Ratio(1, 0) != 0 {
		t.Error("Ratio conventions wrong")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 1024, 1025, 2047} {
		h.Add(v)
	}
	if h.N() != 9 {
		t.Errorf("N = %d", h.N())
	}
	if h.Zero() != 1 {
		t.Errorf("Zero = %d", h.Zero())
	}
	if h.Bucket(0) != 2 { // values 1,1
		t.Errorf("Bucket(0) = %d, want 2", h.Bucket(0))
	}
	if h.Bucket(1) != 2 { // values 2,3
		t.Errorf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(10) != 3 { // 1024,1025,2047
		t.Errorf("Bucket(10) = %d, want 3", h.Bucket(10))
	}
	if h.Mode() != 1024 && h.Mode() != 1 {
		// buckets 0 and 10 tie at 2 vs 3; bucket 10 has 3 so mode is 1024
		t.Errorf("Mode = %d", h.Mode())
	}
	if h.Mode() != 1024 {
		t.Errorf("Mode = %d, want 1024", h.Mode())
	}
	wantMean := (0.0 + 1 + 1 + 2 + 3 + 4 + 1024 + 1025 + 2047) / 9
	if !almostEqual(h.Mean(), wantMean, 1e-9) {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if s := h.String(); !strings.Contains(s, "1K") {
		t.Errorf("String missing 1K bucket: %q", s)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Mode() != 0 {
		t.Error("empty histogram stats should be 0")
	}
	if empty.String() != "(empty histogram)" {
		t.Errorf("empty String = %q", empty.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	h.Add(-1)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	f := func(v int64) bool {
		if v <= 0 {
			v = -v + 1
		}
		var h Histogram
		h.Add(v)
		// The bucket index must satisfy 2^i <= v < 2^(i+1).
		for i := 0; i < 64; i++ {
			if h.Bucket(i) == 1 {
				lo := int64(1) << uint(i)
				if v < lo || (i < 62 && v >= lo*2) {
					return false
				}
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := []struct {
		v    int64
		want string
	}{{1, "1"}, {512, "512"}, {1024, "1K"}, {1 << 20, "1M"}, {1 << 30, "1G"}}
	for _, c := range cases {
		if got := sizeLabel(c.v); got != c.want {
			t.Errorf("sizeLabel(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	s := NewTimeSeries(100)
	s.Add(0, 1)
	s.Add(99, 2)
	s.Add(100, 5)
	s.Add(350, 7)
	bins := s.Bins()
	want := []float64{3, 5, 0, 7}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Errorf("bin %d = %v, want %v", i, bins[i], want[i])
		}
	}
	if s.Total() != 15 || s.Len() != 4 {
		t.Errorf("Total/Len = %v/%v", s.Total(), s.Len())
	}
}

func TestTimeSeriesAddSpread(t *testing.T) {
	s := NewTimeSeries(100)
	s.AddSpread(50, 100, 10) // half in bin 0, half in bin 1
	bins := s.Bins()
	if !almostEqual(bins[0], 5, 1e-9) || !almostEqual(bins[1], 5, 1e-9) {
		t.Errorf("spread bins = %v", bins)
	}
	s2 := NewTimeSeries(100)
	s2.AddSpread(10, 0, 3) // degenerate: all in one bin
	if s2.Bins()[0] != 3 {
		t.Errorf("degenerate spread = %v", s2.Bins())
	}
	s3 := NewTimeSeries(10)
	s3.AddSpread(5, 30, 30) // spans bins 0..3: 5,10,10,5
	want := []float64{5, 10, 10, 5}
	for i, w := range want {
		if !almostEqual(s3.Bins()[i], w, 1e-9) {
			t.Errorf("bin %d = %v, want %v", i, s3.Bins()[i], w)
		}
	}
}

func TestTimeSeriesSpreadConservesMass(t *testing.T) {
	f := func(start uint16, dur uint16, v uint8) bool {
		s := NewTimeSeries(37)
		s.AddSpread(int64(start), int64(dur), float64(v))
		return almostEqual(s.Total(), float64(v), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero width": func() { NewTimeSeries(0) },
		"neg time":   func() { NewTimeSeries(10).Add(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly periodic signal with period 4.
	xs := make([]float64, 64)
	for i := range xs {
		if i%4 == 0 {
			xs[i] = 10
		}
	}
	if ac := Autocorrelation(xs, 4); ac < 0.8 {
		t.Errorf("autocorr at true period = %v, want near 1", ac)
	}
	if ac := Autocorrelation(xs, 2); ac > 0 {
		t.Errorf("autocorr at anti-phase = %v, want negative", ac)
	}
	if Autocorrelation(xs, 0) != 0 || Autocorrelation(xs, 64) != 0 {
		t.Error("degenerate lags should yield 0")
	}
	flat := []float64{5, 5, 5, 5}
	if Autocorrelation(flat, 1) != 0 {
		t.Error("zero-variance series should yield 0")
	}
}

func TestDominantPeriod(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		if i%10 == 0 {
			xs[i] = 50
		}
	}
	if p := DominantPeriod(xs, 2, 50, 0.3); p != 10 {
		t.Errorf("DominantPeriod = %d, want 10", p)
	}
	noise := make([]float64, 100)
	for i := range noise {
		noise[i] = float64((i*2654435761)%97) / 97
	}
	if p := DominantPeriod(noise, 2, 50, 0.9); p != 0 {
		t.Errorf("DominantPeriod on noise = %d, want 0", p)
	}
}

func TestSparkline(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	s := Sparkline(xs, 8, 4)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // 4 rows + axis
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasSuffix(lines[0], "#") {
		t.Errorf("peak column should reach top row: %q", lines[0])
	}
	if strings.Contains(lines[3], "        ") {
		t.Errorf("bottom row should be mostly filled: %q", lines[3])
	}
	if Sparkline(nil, 10, 3) != "" || Sparkline(xs, 0, 3) != "" {
		t.Error("degenerate sparkline should be empty")
	}
	// All-zero series should still render (peak guarded against 0).
	if z := Sparkline([]float64{0, 0, 0}, 3, 2); !strings.Contains(z, "---") {
		t.Errorf("zero sparkline = %q", z)
	}
}

func TestResample(t *testing.T) {
	xs := []float64{1, 1, 3, 3, 5, 5}
	out := resample(xs, 3)
	want := []float64{1, 3, 5}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("resample[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	same := resample(xs, 10)
	if len(same) != len(xs) {
		t.Error("resample should pass through when narrower than target")
	}
}
