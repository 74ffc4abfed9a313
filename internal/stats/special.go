package stats

import "math"

// This file implements the special functions needed for statistical
// inference without any third-party dependency: the regularised
// incomplete beta function, the Student-t CDF and quantile function.
// They back the p-values and confidence intervals reported in Table 3
// and the error bars in Figures 9-10.

// RegIncBeta returns the regularised incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1], computed with the continued
// fraction expansion of Numerical Recipes (Lentz's algorithm).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + float64(a*math.Log(x)) + float64(b*math.Log(1-x)))
	// The continued fraction converges rapidly for x <= (a+1)/(a+b+2);
	// use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise. The <=
	// matters: with < the symmetric case a=b, x=0.5 recurses forever.
	if x <= (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - RegIncBeta(b, a, 1-x)
}

// betaCF evaluates the continued fraction for the incomplete beta
// function using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// TCDF returns P(T <= t) for a Student-t random variable with df
// degrees of freedom.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + float64(t*t))
	p := float64(0.5 * RegIncBeta(df/2, 0.5, x))
	if t > 0 {
		return 1 - p
	}
	return p
}

// TPValue returns the two-sided p-value for a t-statistic with df
// degrees of freedom: P(|T| >= |t|).
func TPValue(t, df float64) float64 {
	if math.IsNaN(t) {
		return math.NaN()
	}
	return 2 * (1 - TCDF(math.Abs(t), df))
}

// TQuantile returns the p-quantile (0 < p < 1) of the Student-t
// distribution with df degrees of freedom, found by bisection on TCDF.
// Accuracy is far beyond what confidence intervals need (~1e-10).
func TQuantile(p, df float64) float64 {
	switch {
	case math.IsNaN(p) || df <= 0:
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	}
	// Symmetric: solve for the upper tail and mirror.
	if p < 0.5 {
		return -TQuantile(1-p, df)
	}
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}
