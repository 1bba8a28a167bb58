// Package stats provides the small numeric substrate shared by the trace
// analysis and simulation packages: ratios, histograms, fixed-bin time
// series, and autocorrelation-based period detection.
package stats

// Ratio returns a/b, or 0 when b is 0 (the read/write-ratio convention
// used in the characterization tables).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
