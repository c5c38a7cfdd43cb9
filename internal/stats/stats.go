// Package stats provides aggregate helpers and plain-text table rendering
// used by every experiment in the Piccolo reproduction.
package stats

import "math"

// Geomean returns the geometric mean of xs. Non-positive values are skipped;
// it returns 0 when nothing remains.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns num/den, or 0 when den is 0. It keeps experiment code free
// of divide-by-zero guards.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
