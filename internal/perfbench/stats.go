package perfbench

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics at position q·(n+1) — the
// "exclusive" method of Python's statistics.quantiles, which the driver
// uses to judge spreads — clamped to the sample range. NaN for no samples.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(n+1) - 1 // zero-based
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Quantile(xs, 0.5): the middle sample, or the mean of the two
// middle samples.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQRFrac is the inter-quartile range as a share of the median — the
// spread statistic of the benchmark contract. Zero when fewer than two
// samples or a zero median leave it undefined.
func IQRFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((Quantile(xs, 0.75) - Quantile(xs, 0.25)) / med)
}

// TailPercentile is the percentile bench.op_ms_p90 reports for n samples:
// the highest one with at least ten samples beyond it, capped at 90 and
// floored at the median. A tail read off fewer than ten samples is noise.
func TailPercentile(n int) float64 {
	if n <= 0 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	return math.Min(90, math.Max(50, p))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
