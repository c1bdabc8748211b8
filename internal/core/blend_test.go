package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/features"
)

// blendTestFitted builds the s5/w1 fit of the engine pins — the blend
// tests reuse that exact configuration so the below-threshold path can be
// checked bit-identically against fitPins.
func blendTestFitted(t *testing.T) *Fitted {
	t.Helper()
	g := testGraphBA()
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0.02
	o.MemoryBudgetBytes = 0
	opts := testOptions(0.1)
	opts.Sampling.Seed = 5
	opts.BSP = bsp.Config{Workers: 1, Oracle: &o, Seed: 5}
	fitted, err := New(opts).Fit(pr, g)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return fitted
}

// TestBlendRegimeSwitch pins the Ellis-style regime rule: identical
// seeds, K−1 observations → the sample-fit prediction, bit-identical to
// the engine pins; K observations → the observation-weighted refit,
// which moves the prediction toward the observed runtimes.
func TestBlendRegimeSwitch(t *testing.T) {
	fitted := blendTestFitted(t)
	g := testGraphBA()
	base, err := fitted.Extrapolate(g, 0)
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}

	// A deterministic observation stream clustered 25% above the
	// sample-fit estimate — the systematic extrapolation bias feedback
	// exists to correct.
	target := base.SuperstepSeconds * 1.25
	obs := []float64{
		target * 0.98, target * 1.01, target * 0.99, target * 1.02, target,
	}

	// K−1 observations: the extrapolation regime answers, and the
	// per-iteration predictions carry the exact float64 bits the engine
	// pins froze.
	below, err := fitted.ExtrapolateBlended(g, 0, obs[:DefaultObservationThreshold-1], 0)
	if err != nil {
		t.Fatalf("ExtrapolateBlended (below threshold): %v", err)
	}
	if below.Runtime.Regime != RegimeExtrapolation {
		t.Errorf("below threshold: regime %q, want %q", below.Runtime.Regime, RegimeExtrapolation)
	}
	if below.Runtime.Observations != DefaultObservationThreshold-1 {
		t.Errorf("below threshold: observations %d, want %d",
			below.Runtime.Observations, DefaultObservationThreshold-1)
	}
	if got, want := fitFingerprint(t, fitted, below.PerIterationSeconds), fitPins["s5/w1"]; got != want {
		t.Errorf("below threshold: fingerprint %s, pinned %s — the no-blend path moved bit-wise", got, want)
	}
	for i := range base.PerIterationSeconds {
		if base.PerIterationSeconds[i] != below.PerIterationSeconds[i] {
			t.Fatalf("below threshold: per-iteration %d differs from plain Extrapolate", i)
		}
	}

	// K observations: the interpolation regime refits, and the blended
	// estimate lands strictly closer to the observed runtimes.
	at, err := fitted.ExtrapolateBlended(g, 0, obs, 0)
	if err != nil {
		t.Fatalf("ExtrapolateBlended (at threshold): %v", err)
	}
	if at.Runtime.Regime != RegimeInterpolation {
		t.Errorf("at threshold: regime %q, want %q", at.Runtime.Regime, RegimeInterpolation)
	}
	if at.Runtime.Observations != DefaultObservationThreshold {
		t.Errorf("at threshold: observations %d, want %d",
			at.Runtime.Observations, DefaultObservationThreshold)
	}
	baseErr := math.Abs(base.SuperstepSeconds - target)
	blendErr := math.Abs(at.SuperstepSeconds - target)
	if blendErr >= baseErr {
		t.Errorf("blended error %.4f not below sample-fit error %.4f (pred %.4f vs %.4f, target %.4f)",
			blendErr, baseErr, at.SuperstepSeconds, base.SuperstepSeconds, target)
	}
	if at.SuperstepSeconds == base.SuperstepSeconds {
		t.Error("at threshold: prediction did not move")
	}
}

// TestBlendObservationOrderInvariant pins that the blend is a pure
// function of the observation multiset, not of arrival order.
func TestBlendObservationOrderInvariant(t *testing.T) {
	fitted := blendTestFitted(t)
	g := testGraphBA()
	obs := []float64{40, 44, 38, 46, 42}
	rev := []float64{42, 46, 38, 44, 40}
	a, err := fitted.ExtrapolateBlended(g, 0, obs, 0)
	if err != nil {
		t.Fatalf("ExtrapolateBlended: %v", err)
	}
	b, err := fitted.ExtrapolateBlended(g, 0, rev, 0)
	if err != nil {
		t.Fatalf("ExtrapolateBlended (reordered): %v", err)
	}
	if a.SuperstepSeconds != b.SuperstepSeconds {
		t.Errorf("prediction depends on observation order: %v vs %v",
			a.SuperstepSeconds, b.SuperstepSeconds)
	}
	if a.Runtime != b.Runtime {
		t.Errorf("distribution depends on observation order: %+v vs %+v", a.Runtime, b.Runtime)
	}
}

// TestDistributionShape checks the normal-approximation bookkeeping:
// p50 at the mean, p95 = mean + z95·σ, and deadline probabilities that
// behave like a CDF.
func TestDistributionShape(t *testing.T) {
	d := newDistribution(100, 25, RegimeInterpolation, 8)
	if d.StdDevSeconds != 5 {
		t.Fatalf("stddev %v, want 5", d.StdDevSeconds)
	}
	if d.P50Seconds != 100 {
		t.Errorf("p50 %v, want 100", d.P50Seconds)
	}
	if want := 100 + z95*5; d.P95Seconds != want {
		t.Errorf("p95 %v, want %v", d.P95Seconds, want)
	}
	if got := d.ProbabilityWithin(100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(≤mean) = %v, want 0.5", got)
	}
	if got := d.ProbabilityWithin(d.P95Seconds); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("P(≤p95) = %v, want 0.95", got)
	}
	if d.ProbabilityWithin(90) >= d.ProbabilityWithin(110) {
		t.Error("ProbabilityWithin is not monotone in the deadline")
	}
	if got := d.ProbabilityWithin(0); got != 0 {
		t.Errorf("P(≤0) = %v, want 0", got)
	}

	// Degenerate spread: a step function at the mean.
	point := newDistribution(100, 0, RegimeExtrapolation, 0)
	if point.ProbabilityWithin(99) != 0 || point.ProbabilityWithin(100) != 1 {
		t.Error("zero-spread distribution is not a step at the mean")
	}
}

// blendPins freeze the interpolation regime's whole answer — the refitted
// coefficients, every per-iteration price and the runtime distribution —
// at the sample cluster's size and at a what-if size, as FNV-1a digests
// of the exact float64 bits. They were taken before the blend started
// sharing one extrapolation-scale derivation (and one set of full-scale
// vectors) between its two passes, so they hold that refactor, and any
// later one, to bit-identical arithmetic.
var blendPins = map[int]string{
	0: "2aca94e144b3768b",
	4: "24f6102d6b64f1d0",
}

func TestBlendInterpolationPinned(t *testing.T) {
	fitted := blendTestFitted(t)
	g := testGraphBA()
	obs := []float64{40, 44, 38, 46, 42, 41, 43}
	for _, workers := range []int{0, 4} {
		pred, err := fitted.ExtrapolateBlended(g, workers, obs, 0)
		if err != nil {
			t.Fatalf("ExtrapolateBlended(workers=%d): %v", workers, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		wf := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		coeffs, intercept := pred.Model.Coefficients()
		names := make([]string, 0, len(coeffs))
		for name := range coeffs {
			names = append(names, string(name))
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name))
			wf(coeffs[features.Name(name)])
		}
		wf(intercept)
		for _, s := range pred.PerIterationSeconds {
			wf(s)
		}
		wf(pred.SuperstepSeconds)
		wf(pred.PredictedRemoteMessageBytes)
		wf(pred.CriticalShareFull)
		wf(pred.Runtime.StdDevSeconds)
		wf(pred.Runtime.P95Seconds)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != blendPins[workers] {
			t.Errorf("workers=%d: interpolation fingerprint %s, pinned %s", workers, got, blendPins[workers])
		}
	}
}
