package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
	"predict/internal/history"
)

// fitS5W1 fits the named algorithm on g in the s5/w1 configuration of the
// engine pins, PageRank-based ones at tolerance 0.001.
func fitS5W1(name string, g *graph.Graph) (*Fitted, error) {
	alg, err := algorithms.ByName(name)
	if err != nil {
		return nil, err
	}
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
		alg = a
	case algorithms.TopKRanking:
		a.PageRank.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
		alg = a
	}
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0.02
	o.MemoryBudgetBytes = 0
	opts := testOptions(0.1)
	opts.Sampling.Seed = 5
	opts.BSP = bsp.Config{Workers: 1, Oracle: &o, Seed: 5}
	return New(opts).Fit(alg, g)
}

// blendTestFitted builds the s5/w1 PageRank fit of the engine pins — the
// blend tests reuse that exact configuration so the below-threshold path
// can be checked bit-identically against fitPins.
func blendTestFitted(t *testing.T) *Fitted {
	t.Helper()
	fitted, err := fitS5W1("PR", testGraphBA())
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

// referenceBlend is the interpolation regime as ExtrapolateBlended
// computed it before the closed form: every observation joins the training
// set as one row per sample iteration — n·iterations rows sharing
// iterations distinct full-scale vectors — and costmodel.Model.Refit
// refits over all of them. The closed form must agree with it.
func referenceBlend(t testing.TB, f *Fitted, g *graph.Graph, workers int, observed []float64) (*Prediction, error) {
	vectors := fullScale(t, f, g, workers)
	pred, err := f.Extrapolate(g, workers)
	if err != nil {
		return nil, err
	}
	iters := float64(len(pred.PerIterationSeconds))
	var baseTotal float64
	for _, s := range pred.PerIterationSeconds {
		baseTotal += s
	}
	obs := append([]float64(nil), observed...)
	sort.Float64s(obs)
	training := []costmodel.TrainingRun{{Source: "sample", Iters: f.TrainingRows}}
	for _, total := range obs {
		run := costmodel.TrainingRun{Source: "observed"}
		for i := range vectors {
			secs := total / iters
			if baseTotal > 0 {
				secs = total * pred.PerIterationSeconds[i] / baseTotal
			}
			run.Iters = append(run.Iters, features.IterationFeatures{Vector: vectors[i], Seconds: secs})
		}
		training = append(training, run)
	}
	blended, err := f.Model.Refit(training)
	if err != nil {
		return nil, err
	}
	pred.Model = blended
	pred.SuperstepSeconds = 0
	for i, v := range vectors {
		secs := blended.PredictIteration(v)
		pred.PerIterationSeconds[i] = secs
		pred.SuperstepSeconds += secs
	}
	n := float64(len(obs))
	var mean, ss float64
	for _, x := range obs {
		mean += x
	}
	mean /= n
	for _, x := range obs {
		ss += (x - mean) * (x - mean)
	}
	variance := iters * blended.ResidualVariance()
	if n >= 2 {
		variance += ss / (n - 1) / n
	}
	pred.Runtime = newDistribution(pred.SuperstepSeconds, variance, RegimeInterpolation, len(obs))
	return pred, nil
}

// blendFloat is one float of an interpolation answer, named, with the
// floor its difference from the reference is measured against.
type blendFloat struct {
	name      string
	got, want float64
	floor     float64
}

// blendFloats pairs every float of got's interpolation answer with
// want's: the fit statistics, the coefficients, every per-iteration price
// and the runtime distribution. xs are the full-scale vectors both priced.
//
// Each is compared relative to the larger of the two magnitudes and its
// floor. R² lives in [0, 1], so its floor is 1: near zero it is one minus
// a ratio of two nearly equal sums. A coefficient is compared through the
// seconds it contributes — its value times its feature summed over xs
// (one per iteration for the intercept) — with the superstep seconds as
// floor: alone it can sit near zero by cancellation, or be ill-determined
// along with a collinear partner (LocMsg and LocMsgSize at a constant
// message size), and then any two summation orders move it far more than
// the prices it produces.
func blendFloats(got, want *Prediction, xs []features.Vector) []blendFloat {
	out := []blendFloat{
		{"r2", got.Model.R2(), want.Model.R2(), 1},
		{"residual variance", got.Model.ResidualVariance(), want.Model.ResidualVariance(), 0},
		{"superstep seconds", got.SuperstepSeconds, want.SuperstepSeconds, 0},
		{"remote bytes", got.PredictedRemoteMessageBytes, want.PredictedRemoteMessageBytes, 0},
		{"critical share", got.CriticalShareFull, want.CriticalShareFull, 0},
		{"stddev", got.Runtime.StdDevSeconds, want.Runtime.StdDevSeconds, 0},
		{"p50", got.Runtime.P50Seconds, want.Runtime.P50Seconds, 0},
		{"p95", got.Runtime.P95Seconds, want.Runtime.P95Seconds, 0},
	}
	for i := range got.PerIterationSeconds {
		out = append(out, blendFloat{fmt.Sprintf("iteration %d", i),
			got.PerIterationSeconds[i], want.PerIterationSeconds[i], 0})
	}
	total := max(math.Abs(got.SuperstepSeconds), math.Abs(want.SuperstepSeconds))
	gc, gi := got.Model.Coefficients()
	wc, wi := want.Model.Coefficients()
	n := float64(len(xs))
	out = append(out, blendFloat{"intercept", gi * n, wi * n, total})
	for _, name := range got.Model.SelectedFeatures() {
		col, _ := features.Index(name)
		var sum float64
		for _, x := range xs {
			sum += math.Abs(x[col])
		}
		out = append(out, blendFloat{"coefficient " + string(name), gc[name] * sum, wc[name] * sum, total})
	}
	return out
}

// blendTolerance is how far a float of the closed-form interpolation may
// sit from the row-expanded reference, relative to its magnitude or floor
// (see blendFloats): the two sum the same products in different orders.
const blendTolerance = 1e-9

// agreesWithReference reports the first float of got that differs from
// want's by more than blendTolerance, and the largest relative difference
// over all of them.
func agreesWithReference(got, want *Prediction, xs []features.Vector) (mismatch string, worst float64) {
	if got.Runtime.Regime != want.Runtime.Regime || got.Runtime.Observations != want.Runtime.Observations ||
		len(got.PerIterationSeconds) != len(want.PerIterationSeconds) ||
		!slices.Equal(got.Model.SelectedFeatures(), want.Model.SelectedFeatures()) {
		return fmt.Sprintf("answers differ in shape: %s/%d vs %s/%d", got.Runtime.Regime,
			got.Runtime.Observations, want.Runtime.Regime, want.Runtime.Observations), math.Inf(1)
	}
	for _, f := range blendFloats(got, want, xs) {
		var d float64
		if f.got != f.want {
			d = math.Abs(f.got-f.want) / max(math.Abs(f.got), math.Abs(f.want), f.floor)
		}
		if d > blendTolerance && mismatch == "" {
			mismatch = fmt.Sprintf("%s: %v vs reference %v (relative %.3g)", f.name, f.got, f.want, d)
		}
		worst = max(worst, d)
	}
	return mismatch, worst
}

// fullScale returns the full-scale vectors f prices g with at workers.
func fullScale(t testing.TB, f *Fitted, g *graph.Graph, workers int) []features.Vector {
	xs := make([]features.Vector, len(f.IterFeatures))
	for i := range xs {
		xs[i] = make(features.Vector, features.PoolSize)
	}
	if _, err := f.price(g, workers, xs); err != nil {
		t.Fatal(err)
	}
	return xs
}

// blendPins freeze the interpolation regime's whole answer — the refitted
// coefficients, every per-iteration price and the runtime distribution —
// at the sample cluster's size and at a what-if size, as FNV-1a digests
// of the exact float64 bits. They were re-taken once, when the refit went
// from one row per observed iteration to the closed form (the summation
// order changed in the last digits); referencePins are the digests of
// the row-expanding refit, which still reproduces them.
var (
	blendPins = map[int]string{
		0: "b614ca4e9d51ee24",
		4: "1514e3cb75a55223",
	}
	referencePins = map[int]string{
		0: "2aca94e144b3768b",
		4: "24f6102d6b64f1d0",
	}
)

func TestBlendInterpolationPinned(t *testing.T) {
	fitted := blendTestFitted(t)
	g := testGraphBA()
	obs := []float64{40, 44, 38, 46, 42, 41, 43}
	fingerprint := func(pred *Prediction) string {
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
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, workers := range []int{0, 4} {
		pred, err := fitted.ExtrapolateBlended(g, workers, obs, 0)
		if err != nil {
			t.Fatalf("ExtrapolateBlended(workers=%d): %v", workers, err)
		}
		if got := fingerprint(pred); got != blendPins[workers] {
			t.Errorf("workers=%d: interpolation fingerprint %s, pinned %s", workers, got, blendPins[workers])
		}
		ref, err := referenceBlend(t, fitted, g, workers, obs)
		if err != nil {
			t.Fatalf("referenceBlend(workers=%d): %v", workers, err)
		}
		if got := fingerprint(ref); got != referencePins[workers] {
			t.Errorf("workers=%d: reference fingerprint %s, pinned %s", workers, got, referencePins[workers])
		}
		mismatch, worst := agreesWithReference(pred, ref, fullScale(t, fitted, g, workers))
		if mismatch != "" {
			t.Errorf("workers=%d: %s", workers, mismatch)
		}
		t.Logf("workers=%d: largest relative difference from the reference %.3g", workers, worst)
	}
}

// TestBlendClosedFormMatchesReference holds the closed-form refit to the
// row-expanding one across the five algorithms, windows on both sides of
// the threshold's first multiples up to the window cap, three noise
// spreads and three cluster sizes.
func TestBlendClosedFormMatchesReference(t *testing.T) {
	g := testGraphBA()
	rng := rand.New(rand.NewPCG(7, 32))
	var worst float64
	for _, name := range []string{"PR", "CC", "NH", "TOPK", "SC"} {
		fitted, err := fitS5W1(name, g)
		if err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		base, err := fitted.Extrapolate(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5, 8, 17, 64} {
			for _, spread := range []float64{0, 0.1, 2} {
				obs := make([]float64, n)
				for j := range obs {
					obs[j] = base.SuperstepSeconds * 1.25 * math.Exp(spread*rng.NormFloat64())
				}
				for _, workers := range []int{0, 4, 16} {
					got, err := fitted.ExtrapolateBlended(g, workers, obs, 0)
					if err != nil {
						t.Fatalf("%s n=%d workers=%d: %v", name, n, workers, err)
					}
					want, err := referenceBlend(t, fitted, g, workers, obs)
					if err != nil {
						t.Fatalf("%s n=%d workers=%d: reference: %v", name, n, workers, err)
					}
					mismatch, d := agreesWithReference(got, want, fullScale(t, fitted, g, workers))
					if mismatch != "" {
						t.Errorf("%s n=%d spread=%v workers=%d: %s", name, n, spread, workers, mismatch)
					}
					worst = max(worst, d)
				}
			}
		}
	}
	t.Logf("largest relative difference from the reference: %.3g", worst)
}

// fuzzModels are the models FuzzExtrapolateBlended prices with, built once
// per process: the s5/w1 PageRank fit, and two degenerate models rebuilt
// from records — the same fit trained on its main sample run alone (one
// training ratio), and zeroResidualRecord's. A record determines its
// model, so no engine runs inside the fuzz loop.
var fuzzModels = sync.OnceValues(func() ([]*Fitted, error) {
	fitted, err := fitS5W1("PR", fuzzGraph())
	if err != nil {
		return nil, err
	}
	single := fitted.Record("single ratio", "single ratio")
	single.Model.TrainingRows = single.Iterations
	models := []*Fitted{fitted}
	for _, rec := range []history.Record{single, zeroResidualRecord()} {
		f, err := FittedFromRecord(rec)
		if err != nil {
			return nil, err
		}
		models = append(models, f)
	}
	return models, nil
})

// zeroResidualRecord is a hand-made model record whose training seconds
// are an exact linear function of one feature, 1/2 + ActVert/1024, over
// sample runs at four ratios; every term is a binary fraction, so the
// fitted line leaves no residual.
func zeroResidualRecord() history.Record {
	col, _ := features.Index(features.ActVert)
	row := func(active int) history.IterationRow {
		v := make([]float64, features.PoolSize)
		v[col] = float64(active)
		return history.IterationRow{Features: v, Seconds: 0.5 + float64(active)/1024}
	}
	rec := history.Record{
		Algorithm:    "PageRank",
		Dataset:      "zero residual",
		Kind:         "model",
		FeatureNames: features.Pool(),
		Model: &history.ModelMeta{
			Key:                   "zero residual",
			SampleVertices:        600,
			SampleEdges:           3600,
			SampleVertexRatio:     0.1,
			SampleEdgeRatio:       0.1,
			SampleCriticalShare:   0.25,
			ProfiledCriticalShare: 0.25,
			SampleRunSeconds:      30,
			SampleWorkers:         4,
		},
	}
	for i := 0; i < 8; i++ {
		active := 600 >> i
		rec.Iterations = append(rec.Iterations, row(active))
		rec.Model.RemoteBytesPerIter = append(rec.Model.RemoteBytesPerIter, float64(8*active))
	}
	for _, vertices := range []int{300, 600, 900, 1200} {
		for i := 0; i < 8; i++ {
			rec.Model.TrainingRows = append(rec.Model.TrainingRows, row(vertices>>i))
		}
	}
	return rec
}

var fuzzGraph = sync.OnceValue(testGraphBA)

// fuzzWindow turns fuzzed parameters into a window of up to
// history.MaxObservationsPerKey observed runtimes in (0, 1e9] seconds:
// all equal, all equal but one outlier, or log-uniform over 300 decades.
func fuzzWindow(n, mode uint8, seed uint64, base float64) []float64 {
	clamp := func(x float64) float64 {
		x = math.Abs(x)
		switch {
		case math.IsNaN(x) || x == 0:
			return 1
		case x > 1e9:
			return 1e9
		}
		return x
	}
	obs := make([]float64, int(n)%65)
	v := clamp(base)
	rng := rand.New(rand.NewPCG(seed, 0xb1e4d))
	for j := range obs {
		switch mode % 3 {
		case 0, 1:
			obs[j] = v
		case 2:
			obs[j] = math.Pow(10, 9-300*rng.Float64())
		}
	}
	if mode%3 == 1 && len(obs) > 0 {
		obs[rng.IntN(len(obs))] = clamp(v * math.Pow(10, 24*rng.Float64()-12))
	}
	return obs
}

// TestFuzzModelsAreDegenerate holds fuzzModels to what they stand for: the
// zero-residual model fits one feature with no residual, and the
// single-ratio model trained on its own sample run's rows alone.
func TestFuzzModelsAreDegenerate(t *testing.T) {
	models, err := fuzzModels()
	if err != nil {
		t.Fatal(err)
	}
	single, zero := models[1], models[2]
	if !slices.EqualFunc(single.TrainingRows, single.IterFeatures, func(a, b features.IterationFeatures) bool {
		return a.Seconds == b.Seconds && slices.Equal(a.Vector, b.Vector)
	}) {
		t.Error("the single-ratio model trained on more than its sample run")
	}
	if got := zero.Model.SelectedFeatures(); !slices.Equal(got, []features.Name{features.ActVert}) || zero.Model.ResidualVariance() != 0 {
		t.Errorf("the zero-residual model selected %v with residual variance %v", got, zero.Model.ResidualVariance())
	}
}

// FuzzExtrapolateBlended drives the blend with fuzzed observation windows
// against one of fuzzModels. Whatever the window and model, the answer is
// an error or finite with p50 ≤ p95; below the threshold it is
// bit-identical to Extrapolate; at or above it the closed form agrees with
// the row-expanded reference.
func FuzzExtrapolateBlended(f *testing.F) {
	for m := uint8(0); m < 3; m++ {
		f.Add(uint8(0), uint8(0), uint64(1), 40.0, uint8(0), m)
		f.Add(uint8(4), uint8(1), uint64(2), 40.0, uint8(1), m)
		f.Add(uint8(5), uint8(0), uint64(3), 1e9, uint8(2), m)
		f.Add(uint8(8), uint8(1), uint64(4), 1e-300, uint8(0), m)
		f.Add(uint8(17), uint8(2), uint64(5), 1.0, uint8(1), m)
		f.Add(uint8(64), uint8(2), uint64(6), 1.0, uint8(2), m)
		f.Add(uint8(64), uint8(0), uint64(7), 5e-324, uint8(0), m)
	}
	f.Fuzz(func(t *testing.T, n, mode uint8, seed uint64, base float64, w, m uint8) {
		models, err := fuzzModels()
		if err != nil {
			t.Fatal(err)
		}
		fitted := models[int(m)%len(models)]
		g := fuzzGraph()
		workers := []int{0, 4, 16}[int(w)%3]
		obs := fuzzWindow(n, mode, seed, base)
		got, err := fitted.ExtrapolateBlended(g, workers, obs, 0)
		if err != nil {
			return
		}
		xs := fullScale(t, fitted, g, workers)
		for _, f := range blendFloats(got, got, xs) {
			if math.IsNaN(f.got) || math.IsInf(f.got, 0) {
				t.Fatalf("window %v: %s is %v", obs, f.name, f.got)
			}
		}
		if got.Runtime.P50Seconds > got.Runtime.P95Seconds {
			t.Fatalf("window %v: p50 %v above p95 %v", obs, got.Runtime.P50Seconds, got.Runtime.P95Seconds)
		}
		if len(obs) < DefaultObservationThreshold {
			plain, err := fitted.Extrapolate(g, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Model != plain.Model || got.SuperstepSeconds != plain.SuperstepSeconds ||
				got.PredictedRemoteMessageBytes != plain.PredictedRemoteMessageBytes ||
				!slices.Equal(got.PerIterationSeconds, plain.PerIterationSeconds) {
				t.Fatalf("window of %d below the threshold moved the answer off Extrapolate's", len(obs))
			}
			return
		}
		want, err := referenceBlend(t, fitted, g, workers, obs)
		if err != nil {
			t.Fatalf("window %v: closed form answered, reference failed: %v", obs, err)
		}
		if mismatch, _ := agreesWithReference(got, want, xs); mismatch != "" {
			t.Fatalf("window %v: %s", obs, mismatch)
		}
	})
}
