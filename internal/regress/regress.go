// Package regress implements multivariate linear regression by ordinary
// least squares and the sequential forward feature-selection mechanism the
// paper's cost-model framework uses (§3.4, after Hastie et al.).
//
// The implementation is self-contained: normal equations solved by
// Gaussian elimination with partial pivoting, with a tiny ridge fallback
// for singular systems (which arise naturally when a candidate feature is
// constant across training iterations).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Fit is a fitted linear model y = Intercept + Σ Coef[i] * x[FeatureIdx[i]].
type Fit struct {
	// FeatureIdx lists the design-matrix columns the model uses, in
	// coefficient order. For a plain OLS fit it is 0..k-1.
	FeatureIdx []int
	// Coef holds one coefficient per selected feature.
	Coef []float64
	// Intercept is the residual term r of the paper's functional form.
	Intercept float64
	// R2 and AdjustedR2 measure fit quality on the training data.
	R2         float64
	AdjustedR2 float64
	// ResidualVariance is the unbiased estimate of the noise variance
	// around the fitted line: SSE / (n - p - 1), with the denominator
	// clamped at 1 when the model consumes every degree of freedom. It is
	// the per-observation uncertainty a prediction interval starts from.
	ResidualVariance float64
}

// Predict evaluates the model on a full feature vector (all columns, not
// just the selected ones).
func (f *Fit) Predict(x []float64) float64 {
	y := f.Intercept
	for i, idx := range f.FeatureIdx {
		y += f.Coef[i] * x[idx]
	}
	return y
}

// ErrInsufficientData reports that there are not enough observations for
// the requested number of coefficients.
var ErrInsufficientData = errors.New("regress: insufficient observations")

// OLS fits y = b0 + b·x over all columns of X by least squares.
func OLS(X [][]float64, y []float64) (*Fit, error) {
	if len(X) == 0 {
		return nil, ErrInsufficientData
	}
	k := len(X[0])
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return OLSSubset(X, y, idx)
}

// OLSSubset fits using only the given columns of X.
func OLSSubset(X [][]float64, y []float64, cols []int) (*Fit, error) {
	n := len(X)
	if n != len(y) {
		return nil, fmt.Errorf("regress: %d rows vs %d targets", n, len(y))
	}
	eq := NewNormal(cols)
	for r := range X {
		eq.Add(X[r], 1, y[r])
	}
	return eq.Solve(func(fit *Fit) (ssRes, ssTot float64) {
		var mean float64
		for _, v := range y {
			mean += v
		}
		mean /= float64(n)
		for i := range y {
			d := y[i] - fit.Predict(X[i])
			ssRes += d * d
			t := y[i] - mean
			ssTot += t * t
		}
		return ssRes, ssTot
	})
}

// Normal accumulates the normal equations A b = c, A = DᵀD and c = Dᵀy,
// over the rows of the design D = [1 | x[cols]]. A repeated row is added
// once with its multiplicity: the cost is bounded by the distinct rows.
type Normal struct {
	cols []int
	a    [][]float64
	c    []float64
	n    int
	d    []float64 // design-row scratch
}

// NewNormal returns an empty problem over the given columns.
func NewNormal(cols []int) *Normal {
	p := len(cols) + 1 // + intercept
	e := &Normal{cols: cols, a: make([][]float64, p), c: make([]float64, p), d: make([]float64, p)}
	for i := range e.a {
		e.a[i] = make([]float64, p)
	}
	return e
}

// Add accumulates count copies of the design row of the full feature
// vector x whose targets sum to ySum: A += count·ddᵀ and c += ySum·d.
func (e *Normal) Add(x []float64, count int, ySum float64) {
	d := e.d
	d[0] = 1
	for j, col := range e.cols {
		d[j+1] = x[col]
	}
	w := float64(count)
	for i := range d {
		for j := range d {
			e.a[i][j] += w * d[i] * d[j]
		}
		e.c[i] += ySum * d[i]
	}
	e.n += count
}

// Solve fits the coefficients by Gaussian elimination, retrying with a
// tiny ridge proportional to A's trace when the system is singular (a
// feature constant across the rows). sums returns the solved fit's
// residual and total sums of squares over the rows, which its R²,
// adjusted R² and residual variance follow from.
func (e *Normal) Solve(sums func(*Fit) (ssRes, ssTot float64)) (*Fit, error) {
	p := len(e.c)
	if e.n < p {
		return nil, fmt.Errorf("%w: %d rows for %d parameters", ErrInsufficientData, e.n, p)
	}
	b, err := solve(e.a, e.c)
	if err != nil {
		var trace float64
		for i := 0; i < p; i++ {
			trace += e.a[i][i]
		}
		ridge := 1e-10*trace/float64(p) + 1e-12
		for i := 0; i < p; i++ {
			e.a[i][i] += ridge
		}
		b, err = solve(e.a, e.c)
		if err != nil {
			return nil, fmt.Errorf("regress: singular normal equations: %w", err)
		}
	}
	fit := &Fit{
		FeatureIdx: append([]int(nil), e.cols...),
		Coef:       b[1:],
		Intercept:  b[0],
	}
	ssRes, ssTot := sums(fit)
	fit.R2, fit.AdjustedR2, fit.ResidualVariance = quality(ssRes, ssTot, e.n, len(fit.Coef))
	return fit, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// A, returning x with A x = c.
func solve(A [][]float64, c []float64) ([]float64, error) {
	p := len(A)
	// Work on copies: row i is A[i] with c[i] appended.
	m, flat := make([][]float64, p), make([]float64, p*(p+1))
	for i := range m {
		m[i] = flat[i*(p+1) : (i+1)*(p+1)]
		copy(m[i], A[i])
		m[i][p] = c[i]
	}
	for col := 0; col < p; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < p; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return nil, errors.New("zero pivot")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < p; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for j := col; j <= p; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		sum := m[i][p]
		for j := i + 1; j < p; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("non-finite solution")
		}
	}
	return x, nil
}

// quality turns the sums of squares of a fit with p coefficients (plus
// the intercept) over n rows into its R², adjusted R² and residual
// variance.
func quality(ssRes, ssTot float64, n, p int) (r2, adj, resVar float64) {
	df := n - p - 1
	if df < 1 {
		df = 1
	}
	resVar = ssRes / float64(df)
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, 1, resVar
		}
		return 0, 0, resVar
	}
	r2 = 1 - ssRes/ssTot
	if n-p-1 > 0 {
		adj = 1 - (1-r2)*float64(n-1)/float64(n-p-1)
	} else {
		adj = r2
	}
	return r2, adj, resVar
}

// ForwardSelect performs sequential forward selection: starting from the
// empty model it repeatedly adds the feature whose inclusion most improves
// adjusted R², stopping when no candidate improves it by more than a small
// threshold or maxFeatures is reached (§3.4's "sequential forward
// selection mechanism").
func ForwardSelect(X [][]float64, y []float64, maxFeatures int) (*Fit, error) {
	if len(X) == 0 {
		return nil, ErrInsufficientData
	}
	k := len(X[0])
	if maxFeatures <= 0 || maxFeatures > k {
		maxFeatures = k
	}
	// Never fit more parameters than observations allow.
	if cap := len(X) - 2; maxFeatures > cap && cap >= 1 {
		maxFeatures = cap
	}

	const minImprovement = 1e-4
	selected := []int{}
	used := make([]bool, k)
	var best *Fit

	// Baseline: intercept-only model.
	interceptOnly, err := OLSSubset(X, y, nil)
	if err != nil {
		return nil, err
	}
	best = interceptOnly

	for len(selected) < maxFeatures {
		var roundBest *Fit
		roundIdx := -1
		for col := 0; col < k; col++ {
			if used[col] {
				continue
			}
			trial := append(append([]int(nil), selected...), col)
			fit, err := OLSSubset(X, y, trial)
			if err != nil {
				continue
			}
			if roundBest == nil || fit.AdjustedR2 > roundBest.AdjustedR2 {
				roundBest = fit
				roundIdx = col
			}
		}
		if roundBest == nil || roundBest.AdjustedR2 <= best.AdjustedR2+minImprovement {
			break
		}
		best = roundBest
		selected = append(selected, roundIdx)
		used[roundIdx] = true
	}
	return best, nil
}
