package stats

import "sort"

// Histogram is a fixed-width binning of samples over [Lo, Hi], as drawn
// along the axes of Figure 2 and on the y-axes of Figures 3-4.
type Histogram struct {
	Lo, Hi float64 // range covered by the bins
	Counts []int   // one count per bin
	N      int     // total number of binned samples
}

// NewHistogram bins xs into bins equal-width bins over [lo, hi].
// Samples outside the range are clamped into the first or last bin,
// which matches how the paper's normalised values behave at 0 and 1.
func NewHistogram(xs []float64, bins int, lo, hi float64) Histogram {
	if bins < 1 {
		bins = 1
	}
	h := Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	if hi <= lo {
		return h
	}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
		h.N++
	}
	return h
}

// Hist2D is a two-dimensional histogram: one row of value-bins per
// integer category. Figures 3 and 4 are exactly this structure — for
// each number of partners (category 0..9) a histogram of Performance or
// Robustness, shaded by relative frequency within the value interval.
type Hist2D struct {
	Categories int     // number of category rows
	Lo, Hi     float64 // value range binned along the other axis
	ValueBins  int
	Counts     [][]int // [category][valueBin]
}

// NewHist2D creates an empty 2-D histogram with the given shape.
func NewHist2D(categories, valueBins int, lo, hi float64) *Hist2D {
	h := &Hist2D{Categories: categories, Lo: lo, Hi: hi, ValueBins: valueBins}
	h.Counts = make([][]int, categories)
	for i := range h.Counts {
		h.Counts[i] = make([]int, valueBins)
	}
	return h
}

// Add records one sample with the given category and value.
// Out-of-range categories are ignored; values are clamped.
func (h *Hist2D) Add(category int, value float64) {
	if category < 0 || category >= h.Categories {
		return
	}
	if h.Hi <= h.Lo {
		return
	}
	w := (h.Hi - h.Lo) / float64(h.ValueBins)
	b := int((value - h.Lo) / w)
	if b < 0 {
		b = 0
	}
	if b >= h.ValueBins {
		b = h.ValueBins - 1
	}
	h.Counts[category][b]++
}

// RowNormalized returns, for value-bin b, the frequency of each category
// normalised by the total count in that value interval — the "darker
// squares represent high partner-value frequency for a particular
// interval" shading of Figures 3-4.
func (h *Hist2D) RowNormalized(b int) []float64 {
	out := make([]float64, h.Categories)
	total := 0
	for c := 0; c < h.Categories; c++ {
		total += h.Counts[c][b]
	}
	if total == 0 {
		return out
	}
	for c := 0; c < h.Categories; c++ {
		out[c] = float64(h.Counts[c][b]) / float64(total)
	}
	return out
}

// CCDFPoint is one point of a complementary CDF curve.
type CCDFPoint struct {
	X float64 // threshold
	P float64 // P(X > x)
}

// CCDF returns the complementary cumulative distribution function of xs
// evaluated at every distinct sample value, as plotted in Figure 5
// ("Complementary CDF plots of Robustness of different stranger
// policies"). The curve is right-continuous: P(X > x).
func CCDF(xs []float64) []CCDFPoint {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var pts []CCDFPoint
	i := 0
	for i < n {
		x := sorted[i]
		j := i
		for j < n && sorted[j] == x {
			j++
		}
		pts = append(pts, CCDFPoint{X: x, P: float64(n-j) / float64(n)})
		i = j
	}
	return pts
}
