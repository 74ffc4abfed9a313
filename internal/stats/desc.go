// Package stats provides the statistical substrate used throughout the
// repository: descriptive statistics, histograms, empirical and
// complementary CDFs, Pearson correlation, min-max normalisation,
// standardisation, and ordinary least squares regression with full
// inference (standard errors, t-statistics, p-values, adjusted R²).
//
// The package is written against the paper's needs: Table 3 is a multiple
// linear regression with dummy-coded categorical variables and
// standardised numeric variables; Figures 2-8 need histograms, CCDFs and
// Pearson correlations; every experiment reports means with 95%
// confidence intervals.
//
// All functions are deterministic and allocate only what they return.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// slice so that downstream aggregation surfaces the error rather than
// silently treating the sample as zero.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for samples of size < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It returns -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, interpolating between the two middle
// order statistics for even-sized samples. It returns NaN for an empty
// slice. xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default).
// It returns NaN for an empty slice. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return Min(xs)
	}
	if q >= 1 {
		return Max(xs)
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	h := float64(q * float64(n-1))
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// MeanCI holds a sample mean together with a symmetric confidence
// interval half-width, as used for the error bars in Figures 9 and 10.
type MeanCI struct {
	Mean  float64 // sample mean
	Half  float64 // half-width of the confidence interval
	N     int     // sample size
	Level float64 // confidence level, e.g. 0.95
}

// Lo returns the lower bound of the interval.
func (c MeanCI) Lo() float64 { return c.Mean - c.Half }

// Hi returns the upper bound of the interval.
func (c MeanCI) Hi() float64 { return c.Mean + c.Half }

// MeanCI95 returns the sample mean of xs with a 95% Student-t confidence
// interval. For n < 2 the half-width is zero.
func MeanCI95(xs []float64) MeanCI {
	return MeanConfidence(xs, 0.95)
}

// MeanConfidence returns the sample mean of xs with a Student-t
// confidence interval at the given level (e.g. 0.95).
func MeanConfidence(xs []float64, level float64) MeanCI {
	n := len(xs)
	ci := MeanCI{Mean: Mean(xs), N: n, Level: level}
	if n < 2 {
		return ci
	}
	sem := StdDev(xs) / math.Sqrt(float64(n))
	t := TQuantile(1-float64((1-level)/2), float64(n-1))
	ci.Half = t * sem
	return ci
}

// MinMaxNormalize rescales xs into [0,1] in place semantics over a fresh
// slice: the minimum maps to 0 and the maximum to 1, exactly the
// normalisation the paper applies to Performance over the whole design
// space ("P=1 indicates the best performance obtained from any protocol
// in the design space"). If all values are equal the result is all zeros.
func MinMaxNormalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	lo, hi := Min(xs), Max(xs)
	span := hi - lo
	if span <= 0 || math.IsInf(lo, 1) {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / span
	}
	return out
}

// Standardize returns (xs - mean)/stddev, the z-scores used for the
// standardised regressors h~ and k~ in Table 3. If the standard
// deviation is zero the result is all zeros.
func Standardize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m, s := Mean(xs), StdDev(xs)
	if s == 0 || math.IsNaN(s) {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / s
	}
	return out
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. It returns an error if the slices differ in length,
// contain fewer than two points, or have zero variance.
//
// The paper reports Pearson's r in three places: Figure 8 (r=0.96
// between Robustness and Aggressiveness), the 50-50 vs 90-10 robustness
// validation (r=0.97), and implicitly in the regression diagnostics.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson: length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: Pearson: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
