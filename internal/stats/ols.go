package stats

import (
	"errors"
	"math"
)

// Coefficient is one fitted regression coefficient with its inference,
// matching the columns of Table 3 (estimate, t value, significance).
type Coefficient struct {
	Name     string  // regressor name, e.g. "(intercept)", "B3", "log(h~)"
	Estimate float64 // fitted value
	StdErr   float64 // standard error
	TValue   float64 // Estimate / StdErr
	PValue   float64 // two-sided p-value against t(n-p)
}

// Significant reports whether the coefficient's p-value is below alpha,
// the "OK if less than 0.001" column of Table 3.
func (c Coefficient) Significant(alpha float64) bool {
	return !math.IsNaN(c.PValue) && c.PValue < alpha
}

// OLSResult is a fitted ordinary least squares model.
type OLSResult struct {
	Coefficients []Coefficient
	N            int     // observations
	P            int     // regressors including intercept
	RSS          float64 // residual sum of squares
	TSS          float64 // total sum of squares (about the mean)
	R2           float64 // coefficient of determination
	AdjR2        float64 // adjusted R², as reported in Table 3's header
	Sigma        float64 // residual standard error
}

// Coef returns the coefficient with the given name, or nil.
func (r *OLSResult) Coef(name string) *Coefficient {
	for i := range r.Coefficients {
		if r.Coefficients[i].Name == name {
			return &r.Coefficients[i]
		}
	}
	return nil
}

// OLS fits y ~ X by ordinary least squares. names labels the columns of
// x and must have length x.Cols. X must already contain the intercept
// column if one is desired (see DesignBuilder, which always adds one).
func OLS(x *Matrix, y []float64, names []string) (*OLSResult, error) {
	if len(names) != x.Cols {
		return nil, errors.New("stats: OLS: names length mismatch")
	}
	if x.Rows <= x.Cols {
		return nil, errors.New("stats: OLS: need more observations than regressors")
	}
	f, err := factorQR(x)
	if err != nil {
		return nil, err
	}
	qty := make([]float64, len(y))
	copy(qty, y)
	f.applyQT(qty)
	beta, err := f.solveR(qty)
	if err != nil {
		return nil, err
	}
	// Residuals: the bottom n-p entries of Qᵀy hold the residual norm,
	// but compute residuals explicitly for clarity and TSS anyway.
	var rss float64
	for i := 0; i < x.Rows; i++ {
		pred := 0.0
		for j := 0; j < x.Cols; j++ {
			pred += float64(x.At(i, j) * beta[j])
		}
		d := y[i] - pred
		rss += float64(d * d)
	}
	my := Mean(y)
	var tss float64
	for _, v := range y {
		d := v - my
		tss += float64(d * d)
	}
	n, p := x.Rows, x.Cols
	df := float64(n - p)
	sigma2 := rss / df
	xtxInv, err := f.invRtR()
	if err != nil {
		return nil, err
	}
	res := &OLSResult{
		N: n, P: p,
		RSS:   rss,
		TSS:   tss,
		Sigma: math.Sqrt(sigma2),
	}
	if tss > 0 {
		res.R2 = 1 - rss/tss
		res.AdjR2 = 1 - (rss/df)/(tss/float64(n-1))
	}
	res.Coefficients = make([]Coefficient, p)
	for j := 0; j < p; j++ {
		se := math.Sqrt(sigma2 * xtxInv.At(j, j))
		t := math.NaN()
		pv := math.NaN()
		if se > 0 {
			t = beta[j] / se
			pv = TPValue(t, df)
		}
		res.Coefficients[j] = Coefficient{
			Name: names[j], Estimate: beta[j], StdErr: se, TValue: t, PValue: pv,
		}
	}
	return res, nil
}

// DesignBuilder incrementally assembles a regression design matrix with
// an intercept, numeric columns and dummy-coded categorical columns.
// Rows are added observation by observation; the set of columns is fixed
// at construction via the successive Add* calls before the first AddRow.
type DesignBuilder struct {
	names  []string
	rows   [][]float64
	y      []float64
	closed bool
}

// NewDesignBuilder returns a builder whose first column is the
// intercept, named "(intercept)" as in Table 3.
func NewDesignBuilder() *DesignBuilder {
	return &DesignBuilder{names: []string{"(intercept)"}}
}

// AddNumeric declares a numeric regressor column.
func (b *DesignBuilder) AddNumeric(name string) {
	b.mustBeOpen()
	b.names = append(b.names, name)
}

// AddDummies declares dummy (one-hot) columns for every non-baseline
// level of a categorical variable. levels must exclude the baseline.
func (b *DesignBuilder) AddDummies(levels ...string) {
	b.mustBeOpen()
	b.names = append(b.names, levels...)
}

func (b *DesignBuilder) mustBeOpen() {
	if b.closed {
		panic("stats: DesignBuilder: columns added after first row")
	}
}

// AddRow appends one observation. values must follow the column order
// declared by the Add* calls (excluding the intercept, which is implied).
func (b *DesignBuilder) AddRow(y float64, values ...float64) {
	if len(values) != len(b.names)-1 {
		panic("stats: DesignBuilder: row width mismatch")
	}
	b.closed = true
	row := make([]float64, len(b.names))
	row[0] = 1
	copy(row[1:], values)
	b.rows = append(b.rows, row)
	b.y = append(b.y, y)
}

// Fit builds the design matrix and runs OLS.
func (b *DesignBuilder) Fit() (*OLSResult, error) {
	if len(b.rows) == 0 {
		return nil, ErrEmpty
	}
	x := NewMatrix(len(b.rows), len(b.names))
	for i, row := range b.rows {
		copy(x.Data[i*x.Cols:(i+1)*x.Cols], row)
	}
	return OLS(x, b.y, b.names)
}

// Names returns the declared column names including the intercept.
func (b *DesignBuilder) Names() []string { return b.names }
