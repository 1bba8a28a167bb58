package stats

import (
	"fmt"
	"math"
	"strings"
)

// TimeSeries accumulates values into fixed-width time bins; it is the
// substrate for the paper's "data rate over time" figures (Figures 3, 4,
// 6 and 7), which bin bytes transferred into 1-second buckets of process
// CPU time or wall-clock time.
//
// Times are abstract int64 units (the caller picks ticks); BinWidth is in
// the same units.
type TimeSeries struct {
	BinWidth int64
	bins     []float64
}

// NewTimeSeries returns a series with the given bin width (> 0).
func NewTimeSeries(binWidth int64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: non-positive bin width")
	}
	return &TimeSeries{BinWidth: binWidth}
}

// Add accumulates v into the bin containing time t. Negative times panic;
// the trace epoch is time zero.
func (s *TimeSeries) Add(t int64, v float64) {
	if t < 0 {
		panic(fmt.Sprintf("stats: negative time %d", t))
	}
	i := int(t / s.BinWidth)
	for len(s.bins) <= i {
		s.bins = append(s.bins, 0)
	}
	s.bins[i] += v
}

// AddSpread distributes v uniformly over [t, t+dur), splitting it across
// the bins the interval overlaps. A zero-duration interval degenerates to
// Add. This models transfers that span bin boundaries.
func (s *TimeSeries) AddSpread(t, dur int64, v float64) {
	if dur <= 0 {
		s.Add(t, v)
		return
	}
	end := t + dur
	for t < end {
		binEnd := (t/s.BinWidth + 1) * s.BinWidth
		if binEnd > end {
			binEnd = end
		}
		s.Add(t, v*float64(binEnd-t)/float64(dur))
		t = binEnd
	}
}

// Bins returns the accumulated bins. The slice is owned by the series.
func (s *TimeSeries) Bins() []float64 { return s.bins }

// Len returns the number of bins.
func (s *TimeSeries) Len() int { return len(s.bins) }

// Total returns the sum over all bins.
func (s *TimeSeries) Total() float64 {
	var t float64
	for _, v := range s.bins {
		t += v
	}
	return t
}

// Autocorrelation returns the normalized autocorrelation of the series at
// the given lag (in bins): corr of (x_t - mean) with (x_{t+lag} - mean),
// normalized by variance. It returns 0 for degenerate inputs.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - mean) * (xs[i+lag] - mean)
	}
	return num / den
}

// DominantPeriod estimates the period of a cyclic series as the lag (in
// bins) of the highest autocorrelation peak in [minLag, maxLag]. A lag
// qualifies as a peak if its autocorrelation exceeds both neighbors. It
// returns 0 when no periodic structure is found (no peak above threshold).
func DominantPeriod(xs []float64, minLag, maxLag int, threshold float64) int {
	if maxLag >= len(xs) {
		maxLag = len(xs) - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	bestLag, bestAC := 0, threshold
	prev := Autocorrelation(xs, minLag)
	cur := Autocorrelation(xs, minLag+1)
	for lag := minLag + 1; lag < maxLag; lag++ {
		next := Autocorrelation(xs, lag+1)
		if cur > prev && cur >= next && cur > bestAC {
			bestAC = cur
			bestLag = lag
		}
		prev, cur = cur, next
	}
	return bestLag
}

// Sparkline renders the series as a fixed-height ASCII chart, the form
// cmd/experiments uses to reproduce the paper's figures in a terminal.
// Bins are downsampled by averaging when the series is wider than width.
func Sparkline(xs []float64, width, height int) string {
	if len(xs) == 0 || width <= 0 || height <= 0 {
		return ""
	}
	cols := resample(xs, width)
	peak := 0.0
	for _, v := range cols {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		peak = 1
	}
	var b strings.Builder
	for row := height; row >= 1; row-- {
		cut := peak * (float64(row) - 0.5) / float64(height)
		for _, v := range cols {
			if v >= cut {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", len(cols)))
	b.WriteByte('\n')
	return b.String()
}

// resample averages xs into exactly n columns (or fewer when len(xs) < n,
// in which case bins map 1:1).
func resample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, n)
	per := float64(len(xs)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * per)
		hi := int(math.Ceil(float64(i+1) * per))
		if hi > len(xs) {
			hi = len(xs)
		}
		sum := 0.0
		for _, v := range xs[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}
