// Package service turns the batch PREDIcT pipeline into a long-running
// prediction service: graphs are loaded once, fitted cost models are
// cached and reused across requests, and predictions are answered
// concurrently over JSON/HTTP.
//
// The split follows the cost structure of the pipeline. The expensive half
// — drawing samples, profiling transformed sample runs at several training
// ratios, fitting the regression (core.Predictor.Fit) — depends only on
// (algorithm configuration, cluster configuration, sampling configuration,
// training ratios, input dataset). The cheap half — extrapolating the
// fitted features to full scale and pricing them (core.Fitted.Extrapolate)
// — additionally takes a what-if worker count. The service therefore keys
// an LRU-bounded cache of core.Fitted values by the expensive half's
// inputs; repeated queries, batch sweeps and what-if cluster sizing all
// hit the cache and pay only extrapolation. This mirrors how C3O-style
// systems answer many configuration queries from runtime models trained
// once.
//
// Endpoints (all JSON; docs/API.md is the full reference):
//
//	POST /predict        one PredictRequest  -> PredictResponse
//	POST /predict/batch  BatchRequest        -> BatchResponse (concurrent)
//	POST /observe        ObserveRequest      -> ObserveResponse (feedback)
//	GET  /models         cached model inventory
//	GET  /datasets       dataset registry inventory
//	GET  /stats          cache hit ratio, in-flight fits, fit-pool depth
//	GET  /healthz        liveness + cache statistics
//	GET  /readyz         readiness: 503 while degraded
//
// Observed actual runtimes posted to /observe close the loop: they are
// persisted as history "observation" records and folded into later
// predictions for the same model key (core.ExtrapolateBlended), which
// also carry p50/p95 interval estimates and deadline probabilities.
//
// Cache entries persist through internal/history ("model" records):
// SaveHistory archives every cached entry's training matrix and
// extrapolation context, and WarmFromHistory refits them at startup —
// cheap regression refits instead of expensive sample reruns.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/core"
	"predict/internal/faultinject"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/history"
	"predict/internal/parallel"
	"predict/internal/sampling"
)

// DefaultTrainingRatios are the paper's §5.2 training sampling ratios,
// used when a request does not override them.
var DefaultTrainingRatios = []float64{0.05, 0.10, 0.15, 0.20}

// Config parameterizes a Service.
type Config struct {
	// MaxModels bounds the fitted-model LRU cache; zero selects 64.
	MaxModels int
	// MaxGraphs bounds the generated-graph LRU cache; zero selects 8.
	MaxGraphs int
	// DefaultTimeout bounds each request when the request itself does not
	// set one; zero selects 60s.
	DefaultTimeout time.Duration
	// FitParallelism budgets the shared fit pool: across all concurrent
	// cold-path fits, at most this many sample+profile pipelines execute
	// at once. Concurrent cache misses for different keys previously
	// serialized on fit compute; the shared pool lets them interleave
	// without letting them multiply. Zero selects GOMAXPROCS.
	FitParallelism int
	// FitTimeout is the per-fit deadline. Fits run detached from request
	// contexts (an abandoned request still warms the cache), so this is
	// the only bound on a cold path that cannot finish; zero selects 5m.
	FitTimeout time.Duration
	// FitQueueDepth bounds how many cold fits may be outstanding at once
	// (executing plus queued behind the fit pool). A cache miss past the
	// bound is shed immediately with 503 + Retry-After instead of queuing
	// unbounded work, so a burst of cold traffic cannot starve warm cache
	// hits. Warm hits never consult the gate. Zero selects
	// 4*FitParallelism.
	FitQueueDepth int
	// MaxInFlight bounds concurrently served prediction requests
	// (/predict and /predict/batch each count one); excess requests are
	// shed with 429 + Retry-After. Zero or negative means unlimited.
	MaxInFlight int
	// Cluster is the sample-run execution environment. The zero value
	// selects 8 workers priced by cluster.DefaultOracle() — the repo's
	// stand-in for the paper's testbed.
	Cluster bsp.Config
	// DatasetDir, when set, enables the dataset registry: files under the
	// directory (<name>.snap snapshots, <name>.txt/.el/.edges edge lists)
	// become named datasets a request can address alongside the generator
	// prefixes. See datasets.go.
	DatasetDir string
	// HistoryPath, when set, names the history file the service persists
	// models to; the readiness probe (Readiness) checks it stays
	// appendable so operators learn about a read-only or full volume
	// before a save silently starts failing. Every newly fitted model is
	// appended here at fit time via the crash-safe durable append — a
	// SIGKILL at any instant loses at most the fit in flight, never a
	// fitted model.
	HistoryPath string
	// MmapDatasets serves .snap registry datasets from mmap'd pages
	// (graph.OpenSnapshot) instead of heap copies: loads are O(1), the
	// kernel page cache shares one physical copy across processes, and a
	// dataset larger than RAM pages in on demand. On platforms without
	// mmap the load silently falls back to the copy-in reader. Mapped
	// generations are never explicitly unmapped — the LRU eviction drops
	// the Graph and the mapping's finalizer reclaims the address space,
	// per the lifetime rules in graph/mmap.go. It changes what an operator
	// may do to DatasetDir: a served .snap is replaced by rename, never
	// overwritten in place (that faults the process; DESIGN.md §11).
	MmapDatasets bool
}

func (c Config) withDefaults() Config {
	if c.MaxModels <= 0 {
		c.MaxModels = 64
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.FitParallelism <= 0 {
		c.FitParallelism = runtime.GOMAXPROCS(0)
	}
	if c.FitTimeout <= 0 {
		c.FitTimeout = 5 * time.Minute
	}
	if c.FitQueueDepth <= 0 {
		c.FitQueueDepth = 4 * c.FitParallelism
	}
	if c.Cluster.Oracle == nil {
		o := cluster.DefaultOracle()
		c.Cluster.Oracle = &o
	}
	if c.Cluster.Workers == 0 {
		c.Cluster.Workers = bsp.DefaultWorkers
	}
	return c
}

// Service answers prediction requests from cached graphs and cost models.
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	models  *cache[*cachedModel]
	graphs  *cache[*graph.Graph]
	fitPool *parallel.Pool
	fitGate *gate // bounds outstanding cold fits (admission control)
	reqGate *gate // optional bound on in-flight requests
	start   time.Time
	// oracleFP fingerprints the cost oracle once at construction — it
	// never changes afterwards, so modelKey must not re-hash it per
	// request (reflection-heavy and allocating).
	oracleFP uint64

	// fits counts cold-path model fits (for tests and /healthz);
	// fitsInFlight tracks fits currently executing; fitTimeouts counts
	// fits killed by the per-fit deadline; requests counts Predict calls.
	fits         atomic.Int64
	fitsInFlight atomic.Int64
	fitTimeouts  atomic.Int64
	requests     atomic.Int64
	// samplesDrawn/samplesReused sum core.Fitted's counts over completed
	// fits: samples a fit drew vs took from its dataset graph's memory.
	samplesDrawn  atomic.Int64
	samplesReused atomic.Int64

	// breakers holds per-model-key circuit breakers; tornRecovered
	// counts torn history tails skipped during warm-start (for /stats).
	breakers      breakerSet
	tornRecovered atomic.Int64

	// lifeCtx is the lifecycle context every detached cold fit derives
	// its deadline from: HardStop cancels it, so a drain deadline passing
	// actually stops in-flight fits instead of letting them outlive the
	// server. draining gates new work (503 + Connection: close) once
	// BeginDrain flips it; drainRejected counts the requests it refused.
	lifeCtx       context.Context
	lifeCancel    context.CancelFunc
	draining      atomic.Bool
	drainRejected atomic.Int64
	// activeWork counts admitted prediction-work requests (predict, batch,
	// dataset load) currently executing — the population a supervised
	// drain waits for while the listener keeps answering 503s and probes.
	activeWork atomic.Int64

	// histMu serializes checkpoint appends, compactions and snapshot
	// saves against each other and guards the mutable history path (an
	// unreadable warm-start file diverts persistence to a sibling).
	// ckptLog counts records in the checkpoint log; ckptBase is the count
	// right after the last compaction/warm-start/save — the growth-factor
	// trigger compares the two.
	histMu   sync.Mutex
	histPath string
	ckptLog  int
	ckptBase int

	// checkpoints/checkpointFailures/compactions are the continuous-
	// checkpointing counters /stats exposes.
	checkpoints        atomic.Int64
	checkpointFailures atomic.Int64
	compactions        atomic.Int64

	// obsMu guards obs, the per-model-key windows of observed actual
	// runtimes (/observe feedback), each capped at
	// history.MaxObservationsPerKey newest-first-out. observations counts
	// runtimes ever recorded; blendExtrapolation/blendInterpolation tally
	// which regime answered each prediction (for /stats).
	obsMu              sync.RWMutex
	obs                map[string][]observation
	observations       atomic.Int64
	blendExtrapolation atomic.Int64
	blendInterpolation atomic.Int64
}

// cachedModel is one model-cache entry: the fitted model and the names of
// its selected features, which every answer from it reports. It never
// references a *graph.Graph: the graph cache, not the model cache, decides
// how long a graph (possibly an mmap region) stays resident.
type cachedModel struct {
	fitted   *core.Fitted
	features []string
}

func newCachedModel(fitted *core.Fitted) *cachedModel {
	m := &cachedModel{fitted: fitted}
	for _, f := range fitted.Model.SelectedFeatures() {
		m.features = append(m.features, string(f))
	}
	return m
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *cfg.Cluster.Oracle)
	lifeCtx, lifeCancel := context.WithCancel(context.Background())
	return &Service{
		cfg:        cfg,
		models:     newCache[*cachedModel](cfg.MaxModels),
		graphs:     newCache[*graph.Graph](cfg.MaxGraphs),
		fitPool:    parallel.NewPool(cfg.FitParallelism),
		fitGate:    newGate(cfg.FitQueueDepth),
		reqGate:    newGate(cfg.MaxInFlight),
		oracleFP:   h.Sum64(),
		start:      time.Now(),
		breakers:   newBreakerSet(),
		lifeCtx:    lifeCtx,
		lifeCancel: lifeCancel,
		histPath:   cfg.HistoryPath,
		ckptBase:   1,
		obs:        make(map[string][]observation),
	}
}

// PredictRequest is one prediction query.
type PredictRequest struct {
	// Dataset is a stand-in prefix: LJ, Wiki, TW or UK.
	Dataset string `json:"dataset"`
	// Scale is the dataset scale factor; zero selects 1.0.
	Scale float64 `json:"scale,omitempty"`
	// GraphSeed seeds dataset generation; zero selects 1.
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// Algorithm names the algorithm: PR, SC, TOPK, CC, NH (or long names).
	Algorithm string `json:"algorithm"`
	// Epsilon is the PageRank tolerance (tau = eps/N) for PR and TOPK;
	// zero selects 0.001, any other value must lie in (0, 1).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Ratio is the main sampling ratio; zero selects 0.10.
	Ratio float64 `json:"ratio,omitempty"`
	// Method is the sampling method: BRJ (default), RJ, MHRW, UNI.
	Method string `json:"method,omitempty"`
	// SampleSeed seeds sampling; zero selects 1.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
	// TrainingRatios override the paper's {0.05, 0.10, 0.15, 0.20}. At
	// least one must differ from Ratio: a fit on one sampling ratio
	// cannot tell how the cost grows with the graph.
	TrainingRatios []float64 `json:"training_ratios,omitempty"`
	// Workers is the what-if worker count of the target run; zero keeps
	// the sample cluster's size (the paper's matched-environment
	// assumption iii). Non-zero values answer capacity-planning queries
	// from the same cached model: only the critical-path share moves.
	Workers int `json:"workers,omitempty"`
	// TimeoutMillis bounds this request; zero selects the service default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// DeadlineSeconds, when positive, asks for the probability that the
	// actual runtime meets this SLA deadline (probability_of_deadline in
	// the response), evaluated against the prediction's p50/p95
	// distribution. It does not change the prediction itself and is not
	// part of the model key.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

func (r PredictRequest) withDefaults() PredictRequest {
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	if r.GraphSeed == 0 {
		r.GraphSeed = 1
	}
	if r.Epsilon == 0 {
		r.Epsilon = 0.001
	}
	if r.Ratio == 0 {
		r.Ratio = defaultRatio
	}
	if r.Method == "" {
		r.Method = string(sampling.BiasedRandomJump)
	}
	if r.SampleSeed == 0 {
		r.SampleSeed = 1
	}
	if len(r.TrainingRatios) == 0 {
		r.TrainingRatios = DefaultTrainingRatios
	}
	return r
}

// defaultRatio is the main sampling ratio a request without one gets.
const defaultRatio = 0.10

// maxScale bounds a request's generator scale. At 16× a stand-in has about
// a million vertices; larger graphs come in through the dataset registry.
const maxScale = 16

// maxTrainingRatios bounds how many sample pipelines one fit queues (the
// paper trains on four ratios).
const maxTrainingRatios = 16

// spansTwoRatios reports whether the sampling ratio and the training
// ratios hold at least two distinct values, with unset fields read as
// their defaults. With one, forward selection keeps no feature and the
// fitted model is its intercept: an answer that ignores the graph's size.
func (r PredictRequest) spansTwoRatios() bool {
	if len(r.TrainingRatios) == 0 {
		return true // DefaultTrainingRatios hold four distinct ratios
	}
	ratio := r.Ratio
	if ratio == 0 {
		ratio = defaultRatio
	}
	for _, tr := range r.TrainingRatios {
		if tr != ratio {
			return true
		}
	}
	return false
}

// Validate reports malformed request fields without touching any cache.
func (r PredictRequest) Validate() error {
	if r.Dataset == "" {
		return fmt.Errorf("service: missing dataset")
	}
	// Dataset existence is resolved per service (registry datasets, then
	// generator prefixes) in graphFor, not here: Validate has no registry.
	if r.Algorithm == "" {
		return fmt.Errorf("service: missing algorithm")
	}
	if _, ok := algorithms.CanonicalName(r.Algorithm); !ok {
		return fmt.Errorf("service: algorithms: unknown algorithm %q", r.Algorithm)
	}
	if r.Scale < 0 {
		return fmt.Errorf("service: negative scale %v", r.Scale)
	}
	if r.Scale > maxScale {
		return fmt.Errorf("service: scale %v exceeds %d", r.Scale, maxScale)
	}
	// Zero is unset (withDefaults selects 0.001). A tolerance of 1 or more
	// converges at once; a negative one never does, so every sample run
	// would go to the superstep cap and the fit would fail.
	if !(r.Epsilon >= 0 && r.Epsilon < 1) {
		return fmt.Errorf("service: epsilon %v out of (0, 1)", r.Epsilon)
	}
	if r.Ratio < 0 || r.Ratio > 1 {
		return fmt.Errorf("service: sampling ratio %v out of (0, 1]", r.Ratio)
	}
	if r.Workers < 0 {
		return fmt.Errorf("service: negative workers %d", r.Workers)
	}
	switch sampling.Method(r.Method) {
	case "", sampling.BiasedRandomJump, sampling.RandomJump,
		sampling.MetropolisHastings, sampling.UniformVertex:
	default:
		return fmt.Errorf("service: unknown sampling method %q", r.Method)
	}
	if len(r.TrainingRatios) > maxTrainingRatios {
		return fmt.Errorf("service: %d training ratios exceed %d", len(r.TrainingRatios), maxTrainingRatios)
	}
	for _, tr := range r.TrainingRatios {
		if tr <= 0 || tr > 1 {
			return fmt.Errorf("service: training ratio %v out of (0, 1]", tr)
		}
	}
	if !r.spansTwoRatios() {
		return fmt.Errorf("service: training_ratios %v add no ratio besides the sampling ratio; a fit needs two distinct ratios to extrapolate", r.TrainingRatios)
	}
	if r.TimeoutMillis < 0 {
		return fmt.Errorf("service: negative timeout %d", r.TimeoutMillis)
	}
	if r.DeadlineSeconds < 0 || math.IsNaN(r.DeadlineSeconds) || math.IsInf(r.DeadlineSeconds, 0) {
		return fmt.Errorf("service: deadline_seconds %v must be a positive finite number", r.DeadlineSeconds)
	}
	return nil
}

// PredictResponse is the answer to one PredictRequest.
type PredictResponse struct {
	Algorithm string `json:"algorithm"`
	Dataset   string `json:"dataset"`
	// Iterations and SuperstepSeconds are the headline predictions.
	Iterations       int     `json:"iterations"`
	SuperstepSeconds float64 `json:"superstep_seconds"`
	// PerIterationSeconds breaks the runtime down by superstep.
	PerIterationSeconds []float64 `json:"per_iteration_seconds,omitempty"`
	// RemoteMessageBytes is the extrapolated network volume (Figure 6).
	RemoteMessageBytes float64 `json:"remote_message_bytes"`
	// ModelR2 and ModelFeatures describe the (possibly cached) cost model.
	ModelR2       float64  `json:"model_r2"`
	ModelFeatures []string `json:"model_features"`
	// ModelKey is the cache key; equal keys share one fitted model.
	ModelKey string `json:"model_key"`
	// CacheHit reports whether the expensive pipeline was skipped.
	CacheHit bool `json:"cache_hit"`
	// Workers is the worker count the prediction targets.
	Workers int `json:"workers"`
	// SampleRunSeconds is the simulated planning cost paid when the model
	// was fitted (zero marginal cost on cache hits).
	SampleRunSeconds float64 `json:"sample_run_seconds"`
	// P50Seconds/P95Seconds/StdDevSeconds describe the prediction's
	// uncertainty distribution: the median, the 95th-percentile runtime
	// bound, and the normal approximation's spread.
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	StdDevSeconds float64 `json:"stddev_seconds"`
	// BlendRegime reports which closed-loop regime answered:
	// "extrapolation" (pure sample-fit) or "interpolation"
	// (observation-weighted refit). Observations is how many observed
	// actual runtimes informed the blend.
	BlendRegime  string `json:"blend_regime"`
	Observations int    `json:"observations"`
	// ProbabilityOfDeadline is P(runtime <= deadline_seconds), present
	// only when the request set deadline_seconds.
	ProbabilityOfDeadline *float64 `json:"probability_of_deadline,omitempty"`
	// ElapsedMillis is the service-side wall-clock latency.
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// appendModelKey canonicalizes the expensive half's inputs into b.
// Everything that changes the fitted model is in the key; the what-if
// worker count is deliberately not. The algorithm name is canonicalized
// ("PR" and "PageRank" share a model) and epsilon only enters for the
// PageRank-based algorithms that consume it, so epsilon-insensitive
// requests cannot fragment the cache. The key is built by appends into a
// caller-provided buffer — the serving path computes it on every request,
// so it must not pay fmt's boxing and scratch allocations.
func (s *Service) appendModelKey(b []byte, r PredictRequest, registryKey string) []byte {
	name, eps := r.Algorithm, 0.0
	if canonical, ok := algorithms.CanonicalName(r.Algorithm); ok {
		name = canonical
		if canonical == "PageRank" || canonical == "TopKRanking" {
			eps = r.Epsilon
		}
	}
	b = append(b, "alg="...)
	b = append(b, name...)
	b = append(b, ",eps="...)
	b = strconv.AppendFloat(b, eps, 'g', -1, 64)
	// Registry datasets enter under their graph-cache key (namespace +
	// file mtime/size): a registry file named "Wiki" must not hit a model
	// fitted on the generator stand-in of the same name, and a model
	// fitted on one version of a file must not be served — now or via
	// history warm-up after a restart — for a replaced file. The caller
	// resolves the dataset once and passes the same key here and to
	// graphFor, so a file racing in, out or over mid-request cannot split
	// the two decisions.
	data := r.Dataset
	if registryKey != "" {
		data = registryKey
	}
	b = append(b, "|data="...)
	b = append(b, data...)
	b = append(b, ",scale="...)
	b = strconv.AppendFloat(b, r.Scale, 'g', -1, 64)
	b = append(b, ",gseed="...)
	b = strconv.AppendUint(b, r.GraphSeed, 10)
	b = append(b, "|method="...)
	b = append(b, r.Method...)
	b = append(b, ",ratio="...)
	b = strconv.AppendFloat(b, r.Ratio, 'g', -1, 64)
	b = append(b, ",sseed="...)
	b = strconv.AppendUint(b, r.SampleSeed, 10)
	b = append(b, "|train="...)
	for i, tr := range r.TrainingRatios {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, tr, 'g', -1, 64)
	}
	// The oracle enters as an opaque fingerprint (hashed once in New):
	// any coefficient change invalidates the key without leaking the
	// hidden ground truth into API responses.
	b = append(b, "|cluster=w"...)
	b = strconv.AppendInt(b, int64(s.cfg.Cluster.Workers), 10)
	b = append(b, ",s"...)
	b = strconv.AppendUint(b, s.cfg.Cluster.Seed, 10)
	b = append(b, ",o"...)
	b = strconv.AppendUint(b, s.oracleFP, 16)
	return b
}

// graphFor returns the requested dataset graph: the registry file at
// path when the caller resolved one (registryKey non-empty; loaded from
// disk at most once per file version), a generated stand-in otherwise
// (generated at most once per (prefix, scale, seed)).
func (s *Service) graphFor(ctx context.Context, r PredictRequest, path, registryKey string) (*graph.Graph, error) {
	if registryKey != "" {
		// Registry datasets are fixed files: the generator knobs do not
		// apply, and silently ignoring them would fragment the model cache
		// across keys that name the same graph.
		if r.Scale != 1 {
			return nil, &Error{Status: 400, Msg: fmt.Sprintf(
				"service: dataset %q is a registry dataset; scale does not apply (got %g)", r.Dataset, r.Scale)}
		}
		if r.GraphSeed != 1 {
			return nil, &Error{Status: 400, Msg: fmt.Sprintf(
				"service: dataset %q is a registry dataset; graph_seed does not apply (got %d)", r.Dataset, r.GraphSeed)}
		}
		g, _, err := s.loadDataset(ctx, r.Dataset, path, registryKey)
		return g, err
	}
	key := fmt.Sprintf("%s|%g|%d", r.Dataset, r.Scale, r.GraphSeed)
	g, _, err := s.graphs.get(ctx, key, func() (*graph.Graph, error) {
		ds, err := gen.ByPrefix(r.Dataset)
		if err != nil {
			if s.cfg.DatasetDir != "" {
				return nil, fmt.Errorf("service: unknown dataset %q: not a file under %s and not a generator prefix (LJ, Wiki, TW, UK)",
					r.Dataset, s.cfg.DatasetDir)
			}
			return nil, fmt.Errorf("service: unknown dataset %q (want LJ, Wiki, TW or UK)", r.Dataset)
		}
		gr := ds.Generate(r.Scale, r.GraphSeed)
		// Warm the per-graph degree artifacts (BRJ seed ordering, memoized
		// degree sequences) while the graph is being cached: every cold fit
		// against this graph — all algorithms, all sampling ratios — shares
		// them, so the first request should not pay the build inside its
		// sampling pipeline.
		gr.EnsureDegreeArtifacts()
		return gr, nil
	})
	return g, err
}

// algorithmFor configures the named algorithm for a graph of n vertices.
func algorithmFor(name string, eps float64, n int) (algorithms.Algorithm, error) {
	alg, err := algorithms.ByName(name)
	if err != nil {
		return nil, err
	}
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = algorithms.TauForTolerance(eps, n)
		return a, nil
	case algorithms.TopKRanking:
		a.PageRank.Tau = algorithms.TauForTolerance(eps, n)
		return a, nil
	}
	return alg, nil
}

// Predict answers one request, consulting and populating the model cache.
// The fit of a cache miss is shared across concurrent identical requests
// (single-flight) and keeps running to completion even if ctx expires, so
// the cache still warms; only the response is abandoned. The response's
// ModelFeatures is shared with the cached model: read-only to the caller.
func (s *Service) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	var resp PredictResponse
	if err := s.predictInto(ctx, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// predictInto is Predict writing into a caller-owned response — the HTTP
// handler passes a pooled struct so the warm path allocates nothing for
// the response itself. Every field of out is overwritten on success.
func (s *Service) predictInto(ctx context.Context, req PredictRequest, out *PredictResponse) error {
	start := time.Now()
	s.requests.Add(1)
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return &Error{Status: 400, Msg: err.Error()}
	}

	// Resolve the dataset against the registry exactly once per request:
	// the prediction must agree on registry-vs-generator — and on the
	// file version — even if the file appears, disappears or is replaced
	// while the request is in flight.
	var registryKey string
	path, fi, _, registry := s.resolveDataset(req.Dataset)
	if registry {
		registryKey = datasetKey(req.Dataset, fi)
	}

	key := string(s.appendModelKey(make([]byte, 0, 192), req, registryKey))
	if err := s.computePrediction(ctx, req, path, registryKey, key, out); err != nil {
		return err
	}
	if req.DeadlineSeconds > 0 {
		d := core.Distribution{
			MeanSeconds:   out.SuperstepSeconds,
			StdDevSeconds: out.StdDevSeconds,
		}
		p := d.ProbabilityWithin(req.DeadlineSeconds)
		out.ProbabilityOfDeadline = &p
	}
	out.ElapsedMillis = float64(time.Since(start)) / float64(time.Millisecond)
	return nil
}

// doing names the request in a timeout message.
func (r PredictRequest) doing() string {
	return "predicting " + r.Algorithm + " on dataset " + r.Dataset
}

// requestError is the *Error a failed cache lookup answers with: 504 when
// the request's own context ended the wait (the fill it waited on goes
// on; doing names what the request was doing), the fill's typed error
// when it has one, fallback otherwise.
func requestError(ctx context.Context, doing string, err error, fallback int) *Error {
	if ctx.Err() != nil {
		return &Error{Status: 504, Msg: "service: request timed out " + doing}
	}
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return &Error{Status: fallback, Msg: err.Error()}
}

// computePrediction is everything past validation and key construction:
// graph cache, model cache, extrapolation. It runs on the caller's
// goroutine and waits under ctx; the two caches run their fills (dataset
// load, fit) detached, so a request that gives up abandons only its
// response. Every error it returns is an *Error. On success it overwrites
// every field of out, leaving ElapsedMillis and ProbabilityOfDeadline zero
// for the per-request stamps.
func (s *Service) computePrediction(ctx context.Context, req PredictRequest, path, registryKey, key string, out *PredictResponse) error {
	g, err := s.graphFor(ctx, req, path, registryKey)
	if err != nil {
		return requestError(ctx, req.doing(), err, 400)
	}

	model, hit, err := s.models.get(ctx, key, func() (*cachedModel, error) {
		// The breaker runs before the fit gate: while it is open, requests
		// for this key must not consume fit-queue slots that working keys
		// could use.
		if proceed, wait := s.breakers.allow(key); !proceed {
			return nil, &Error{Status: 503, RetryAfterSeconds: ceilSeconds(wait), Msg: fmt.Sprintf(
				"service: circuit breaker open for this model (%d consecutive fit failures); retry later",
				breakerThreshold)}
		}
		if !s.fitGate.tryAcquire() {
			// A gate shed says nothing about whether this key's fits still
			// fail — release any half-open probe admission unjudged.
			s.breakers.skip(key)
			return nil, &Error{Status: 503, RetryAfterSeconds: shedRetryAfterSeconds, Msg: fmt.Sprintf(
				"service: fit queue full (%d cold fits outstanding); retry later", s.cfg.FitQueueDepth)}
		}
		defer s.fitGate.release()
		fitted, err := s.fit(req, g)
		if err != nil {
			s.breakers.failure(key)
			return nil, err
		}
		s.breakers.success(key)
		s.checkpoint(key, fitted)
		return newCachedModel(fitted), nil
	})
	if err != nil {
		return requestError(ctx, req.doing(), err, 500)
	}

	// Closed-loop blending: the key's observed runtimes select the regime.
	// The window is read under obsMu after the model lookup, so an
	// /observe acknowledged before this request was sent is always in it.
	// A key never observed copies nothing and takes the plain
	// extrapolation path, bit-identical to Extrapolate.
	s.obsMu.RLock()
	observed := observedSeconds(s.obs[key])
	s.obsMu.RUnlock()
	fitted := model.fitted
	pred, err := fitted.ExtrapolateBlended(g, req.Workers, observed, core.DefaultObservationThreshold)
	if err != nil {
		return &Error{Status: 500, Msg: err.Error()}
	}
	if pred.Runtime.Regime == core.RegimeInterpolation {
		s.blendInterpolation.Add(1)
	} else {
		s.blendExtrapolation.Add(1)
	}
	workers := req.Workers
	if workers == 0 {
		workers = fitted.SampleWorkers
	}
	*out = PredictResponse{
		Algorithm:           pred.Algorithm,
		Dataset:             req.Dataset,
		Iterations:          pred.Iterations,
		SuperstepSeconds:    pred.SuperstepSeconds,
		PerIterationSeconds: pred.PerIterationSeconds,
		RemoteMessageBytes:  pred.PredictedRemoteMessageBytes,
		ModelR2:             pred.Model.R2(),
		ModelFeatures:       model.features,
		ModelKey:            key,
		CacheHit:            hit,
		Workers:             workers,
		SampleRunSeconds:    pred.SampleRunSeconds,
		P50Seconds:          pred.Runtime.P50Seconds,
		P95Seconds:          pred.Runtime.P95Seconds,
		StdDevSeconds:       pred.Runtime.StdDevSeconds,
		BlendRegime:         pred.Runtime.Regime,
		Observations:        pred.Runtime.Observations,
	}
	return nil
}

// ceilSeconds converts a wait into a whole-second Retry-After hint, at
// least 1 (zero would tell clients to hammer immediately).
func ceilSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// fit runs the expensive pipeline half for a request (cold path). Its
// sample pipelines execute on the service's shared fit pool, so N
// concurrent cold fits interleave within one parallelism budget instead
// of serializing behind each other (or stampeding the host). Each fit
// gets its own FitTimeout deadline, detached from request contexts: an
// abandoned request still warms the cache, but a fit that cannot finish
// is bounded.
func (s *Service) fit(req PredictRequest, g *graph.Graph) (*core.Fitted, error) {
	// The deadline derives from the lifecycle context, not Background():
	// fits are detached from request contexts, so the only way a drain
	// deadline can stop one is HardStop canceling lifeCtx — which must
	// abort the fit, free its pool slot, and leave no goroutine behind.
	ctx, cancel := context.WithTimeout(s.lifeCtx, s.cfg.FitTimeout)
	defer cancel()
	if fault := faultinject.Fire(faultinject.PointServiceFit); fault != nil {
		// An injected stall must end the moment the lifecycle context is
		// canceled, not after the scheduled delay — it stands in for a fit
		// stuck in its sample pipeline during a drain.
		fault.SleepContext(ctx)
		fault.MaybeKill()
		if fault.Err != nil {
			return nil, fault.Err
		}
	}
	alg, err := algorithmFor(req.Algorithm, req.Epsilon, g.NumVertices())
	if err != nil {
		return nil, err
	}
	p := core.New(core.Options{
		Method:         sampling.Method(req.Method),
		Sampling:       sampling.Options{Ratio: req.Ratio, Seed: req.SampleSeed},
		BSP:            s.cfg.Cluster,
		TrainingRatios: req.TrainingRatios,
		Pool:           s.fitPool,
	})
	s.fits.Add(1)
	s.fitsInFlight.Add(1)
	defer s.fitsInFlight.Add(-1)
	fitted, err := p.FitContext(ctx, alg, g)
	switch {
	case err == nil:
		s.samplesDrawn.Add(int64(fitted.SamplesDrawn))
		s.samplesReused.Add(int64(fitted.SamplesReused))
		return fitted, nil
	case s.lifeCtx.Err() != nil:
		// Lifecycle cancellation is shutdown, not a deadline: the client
		// should retry against a healthy replica, and fitTimeouts must not
		// count it as a stuck fit.
		return nil, &Error{Status: 503, Msg: "service: fit canceled: service shutting down"}
	case errors.Is(err, context.DeadlineExceeded):
		s.fitTimeouts.Add(1)
		return nil, fmt.Errorf("service: fit exceeded the %v per-fit deadline: %w",
			s.cfg.FitTimeout, err)
	}
	return nil, err
}

// checkpoint appends one freshly fitted model to the history log — the
// continuous-checkpointing path. Failures are counted, not fatal: a full
// or read-only volume degrades persistence, not serving (the readiness
// probe surfaces it).
func (s *Service) checkpoint(key string, fitted *core.Fitted) {
	if s.appendRecord(fitted.Record(key, key)) {
		s.checkpoints.Add(1)
	}
}

// checkpointGrowthFactor bounds checkpoint-log growth: when the log holds
// this many times the records it held after the last rewrite (or warm
// start), a compaction keeps only the newest record per model key.
const checkpointGrowthFactor = 4

// appendRecord durably appends one record to the history log (fsync
// before close), so once it returns a SIGKILL at any instant loses at
// most the fit in flight, and runs the growth-triggered crash-safe
// compaction. Both the continuous model checkpoint and the /observe
// feedback path land here, so observations ride exactly the persistence
// machinery — and the compaction cap — the checkpoint log already has.
// Reports whether the append succeeded; failures are counted, not fatal.
func (s *Service) appendRecord(rec history.Record) bool {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if s.histPath == "" {
		return false
	}
	if err := history.AppendFileSync(s.histPath, rec); err != nil {
		s.checkpointFailures.Add(1)
		return false
	}
	s.ckptLog++
	if s.ckptLog >= checkpointGrowthFactor*s.ckptBase {
		kept, err := history.CompactFile(s.histPath)
		if err != nil {
			s.checkpointFailures.Add(1)
			return true // the append itself succeeded
		}
		s.compactions.Add(1)
		s.resetLogBaseline(kept)
	}
	return true
}

// resetLogBaseline records that the checkpoint log now holds n records
// and measures growth from there. Callers hold histMu.
func (s *Service) resetLogBaseline(n int) {
	s.ckptLog = n
	s.ckptBase = max(n, 1)
}

// ObserveRequest reports one observed actual runtime for a previously
// predicted model key — the feedback half of the closed loop.
type ObserveRequest struct {
	// ModelKey is the model_key a /predict response reported.
	ModelKey string `json:"model_key"`
	// ActualSeconds is the observed superstep-phase runtime.
	ActualSeconds float64 `json:"actual_seconds"`
	// Workers optionally records the cluster size of the observed run.
	Workers int `json:"workers,omitempty"`
}

// ObserveResponse acknowledges one recorded observation.
type ObserveResponse struct {
	ModelKey string `json:"model_key"`
	// Observations is the key's observation count after this record.
	Observations int `json:"observations"`
	// BlendRegime is the regime the key's next prediction will use.
	BlendRegime string `json:"blend_regime"`
	// Persisted reports whether the observation reached the history log
	// (false when no history path is configured or the volume is failing;
	// the observation still informs this process's predictions).
	Persisted bool `json:"persisted"`
}

// Observe records an observed actual runtime against a cached model key:
// it joins the key's in-memory observation window (bounded by
// history.MaxObservationsPerKey, oldest evicted first) and is durably
// appended to the history log as an "observation" record so feedback
// survives restarts. An unknown key is a 404 — accepting it would write
// an orphan history record no prediction could ever use.
func (s *Service) Observe(ctx context.Context, req ObserveRequest) (*ObserveResponse, error) {
	if req.ModelKey == "" {
		return nil, &Error{Status: 400, Msg: "service: missing model_key"}
	}
	if err := checkActualSeconds(req.ActualSeconds); err != nil {
		return nil, &Error{Status: 400, Msg: err.Error()}
	}
	if req.Workers < 0 {
		return nil, &Error{Status: 400, Msg: fmt.Sprintf("service: negative workers %d", req.Workers)}
	}
	// peek, not get: a failed observation must not count as a cache hit or
	// refresh the key's LRU position.
	if _, ok := s.models.peek(req.ModelKey); !ok {
		return nil, &Error{Status: 404, Msg: fmt.Sprintf(
			"service: unknown model key %q: observations attach to fitted models (predict first)", req.ModelKey)}
	}
	n := s.recordObservation(req.ModelKey, observation{req.ActualSeconds, req.Workers})
	persisted := s.appendRecord(history.NewObservation(req.ModelKey, req.ActualSeconds, req.Workers))
	regime := core.RegimeExtrapolation
	if n >= core.DefaultObservationThreshold {
		regime = core.RegimeInterpolation
	}
	return &ObserveResponse{
		ModelKey:     req.ModelKey,
		Observations: n,
		BlendRegime:  regime,
		Persisted:    persisted,
	}, nil
}

// maxActualSeconds bounds an observed runtime at about 31.7 years, far
// past any real run: accepted, values of ~1e200 s overflow the
// interpolation refit's sums of squares and make every answer for the
// key non-finite.
const maxActualSeconds = 1e9

// checkActualSeconds is the one check live /observe and history replay
// share, so a log written before the bound cannot bring a value back.
func checkActualSeconds(secs float64) error {
	if !(secs > 0 && secs <= maxActualSeconds) {
		return fmt.Errorf("service: actual_seconds %v out of (0, %g]", secs, float64(maxActualSeconds))
	}
	return nil
}

// observation is one entry of a key's feedback window: everything its
// history record carries but the key. The blend reads the seconds; the
// workers ride along so that a snapshot writes what the append wrote.
type observation struct {
	seconds float64
	workers int
}

// observedSeconds copies a window's runtimes, the part the blend reads; an
// empty window copies nothing.
func observedSeconds(w []observation) []float64 {
	if len(w) == 0 {
		return nil
	}
	secs := make([]float64, len(w))
	for i, o := range w {
		secs[i] = o.seconds
	}
	return secs
}

// recordObservation appends o to the key's in-memory observation window,
// evicting the oldest past history.MaxObservationsPerKey, and returns the
// window's new size.
func (s *Service) recordObservation(key string, o observation) int {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	w := append(s.obs[key], o)
	if len(w) > history.MaxObservationsPerKey {
		w = w[len(w)-history.MaxObservationsPerKey:]
	}
	s.obs[key] = w
	s.observations.Add(1)
	return len(w)
}

// ActiveWork reports how many admitted prediction-work requests are
// executing right now — what a supervised drain waits to reach zero.
func (s *Service) ActiveWork() int64 { return s.activeWork.Load() }

// BeginDrain flips the service into draining: new prediction work is
// refused with 503 + Connection: close (load balancers move on), the
// readiness probe reports draining, and in-flight work keeps running.
// Idempotent; there is no way back — a draining process exits.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// HardStop cancels the lifecycle context: every in-flight detached fit
// derives its deadline from it, so fits abort promptly, release their
// pool slots, and fail their waiting requests with 503. Called when the
// drain deadline passes with work still in flight.
func (s *Service) HardStop() { s.lifeCancel() }

// HistoryPath reports where checkpoints and saves currently land (the
// configured path unless RedirectHistory diverted it).
func (s *Service) HistoryPath() string {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.histPath
}

// RedirectHistory diverts future checkpoints and saves to path — the
// recovery move when the configured history file is unreadable and must
// be preserved for inspection rather than overwritten.
func (s *Service) RedirectHistory(path string) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.histPath = path
	s.resetLogBaseline(0)
}

// ModelInfo describes one cached model for the /models inventory.
type ModelInfo struct {
	Key        string   `json:"key"`
	Algorithm  string   `json:"algorithm"`
	Iterations int      `json:"iterations"`
	R2         float64  `json:"r2"`
	Features   []string `json:"features"`
	Hits       int64    `json:"hits"`
	AgeSeconds float64  `json:"age_seconds"`
}

// Models lists the cached models, most recently used first.
func (s *Service) Models() []ModelInfo {
	entries := s.models.snapshot()
	out := make([]ModelInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, ModelInfo{
			Key:        e.key,
			Algorithm:  e.val.fitted.Algorithm,
			Iterations: e.val.fitted.Iterations,
			R2:         e.val.fitted.Model.R2(),
			Features:   e.val.features,
			Hits:       e.hits,
			AgeSeconds: time.Since(e.added).Seconds(),
		})
	}
	return out
}

// Stats are the service's cache, fit and pool counters — the /stats
// payload an operator watches to size FitParallelism.
type Stats struct {
	Models    int   `json:"models"`
	Graphs    int   `json:"graphs"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRatio is Hits / (Hits + Misses); zero before any lookup.
	HitRatio float64 `json:"hit_ratio"`
	// Fits counts cold-path fits ever started; InFlightFits counts fits
	// executing now; FitTimeouts counts fits killed by the per-fit
	// deadline.
	Fits         int64 `json:"fits"`
	InFlightFits int64 `json:"in_flight_fits"`
	FitTimeouts  int64 `json:"fit_timeouts"`
	// PoolSize is the fit pool's parallelism budget; PoolInFlight the
	// sample pipelines executing now; PoolDepth the pipelines queued
	// waiting for a slot.
	PoolSize     int   `json:"pool_size"`
	PoolInFlight int64 `json:"pool_in_flight"`
	PoolDepth    int64 `json:"pool_depth"`
	// Requests counts Predict calls ever served (batch items count
	// individually); Coalesced counts requests that waited on a dataset
	// load or a fit another request had already started.
	Requests  int64 `json:"requests"`
	Coalesced int64 `json:"coalesced"`
	// FitQueueCap is the admission bound on outstanding cold fits;
	// FitQueueDepth the slots held right now; Shed the
	// requests rejected by admission control (fit-queue 503s plus
	// in-flight 429s).
	FitQueueCap   int   `json:"fit_queue_cap"`
	FitQueueDepth int64 `json:"fit_queue_depth"`
	Shed          int64 `json:"shed"`
	// BreakerTrips counts circuit-breaker open transitions; BreakerOpen
	// the model keys currently open; BreakerFastFails the requests
	// answered 503 by an open breaker without consuming fit slots.
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerOpen      int   `json:"breaker_open"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	// TornRecovered counts torn trailing history records recovered
	// (skipped, not fatal) during warm-start.
	TornRecovered int64 `json:"torn_records_recovered"`
	// UptimeSeconds is seconds since the service was constructed —
	// monotonically non-decreasing across successive /stats reads of one
	// process, so a reset betrays an unnoticed restart.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports whether the service has begun supervised drain;
	// DrainRejected counts the requests refused (503 + Connection: close)
	// since it began.
	Draining      bool  `json:"draining"`
	DrainRejected int64 `json:"drain_rejected"`
	// CheckpointsWritten counts fitted models durably appended to the
	// history log at fit time; CheckpointFailures the appends/compactions
	// that failed (persistence degraded, serving unaffected); Compactions
	// the growth-triggered log rewrites.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	Compactions        int64 `json:"compactions"`
	// Observations counts actual runtimes ever recorded via /observe (or
	// warm-started from the history log); ObservedKeys the model keys with
	// a non-empty observation window.
	Observations int64 `json:"observations"`
	ObservedKeys int   `json:"observed_keys"`
	// BlendExtrapolation/BlendInterpolation tally predictions answered by
	// each closed-loop regime.
	BlendExtrapolation int64 `json:"blend_extrapolation"`
	BlendInterpolation int64 `json:"blend_interpolation"`
	// Goroutines and OpenFDs are process-level leak canaries the soak
	// harness watches; OpenFDs is 0 where /proc is unavailable.
	Goroutines int `json:"goroutines"`
	OpenFDs    int `json:"open_fds"`
	// SamplesDrawn counts the samples completed fits drew themselves;
	// SamplesReused the ones they took from the sample family their
	// dataset graph remembered (same method, options and sample seed as an
	// earlier or concurrent fit). Reused staying at zero means the traffic
	// shares no samples: every fit carries its own seed or options.
	SamplesDrawn  int64 `json:"samples_drawn"`
	SamplesReused int64 `json:"samples_reused"`
}

// Stats returns a snapshot of the cache, fit and pool counters.
func (s *Service) Stats() Stats {
	h, m, ev := s.models.counters()
	st := Stats{
		Models:        s.models.len(),
		Graphs:        s.graphs.len(),
		Hits:          h,
		Misses:        m,
		Evictions:     ev,
		Fits:          s.fits.Load(),
		InFlightFits:  s.fitsInFlight.Load(),
		FitTimeouts:   s.fitTimeouts.Load(),
		PoolSize:      s.fitPool.Size(),
		PoolInFlight:  s.fitPool.InFlight(),
		PoolDepth:     s.fitPool.Waiting(),
		Requests:      s.requests.Load(),
		Coalesced:     s.models.joined.Load() + s.graphs.joined.Load(),
		FitQueueCap:   s.fitGate.capacity(),
		FitQueueDepth: s.fitGate.held(),
		Shed:          s.fitGate.shed.Load() + s.reqGate.shed.Load(),

		BreakerTrips:     s.breakers.trips.Load(),
		BreakerOpen:      s.breakers.openCount(),
		BreakerFastFails: s.breakers.fastFails.Load(),
		TornRecovered:    s.tornRecovered.Load(),

		UptimeSeconds:      time.Since(s.start).Seconds(),
		Draining:           s.draining.Load(),
		DrainRejected:      s.drainRejected.Load(),
		CheckpointsWritten: s.checkpoints.Load(),
		CheckpointFailures: s.checkpointFailures.Load(),
		Compactions:        s.compactions.Load(),
		Observations:       s.observations.Load(),
		BlendExtrapolation: s.blendExtrapolation.Load(),
		BlendInterpolation: s.blendInterpolation.Load(),

		Goroutines: runtime.NumGoroutine(),
		OpenFDs:    openFDs(),

		SamplesDrawn:  s.samplesDrawn.Load(),
		SamplesReused: s.samplesReused.Load(),
	}
	s.obsMu.RLock()
	st.ObservedKeys = len(s.obs)
	s.obsMu.RUnlock()
	if total := h + m; total > 0 {
		st.HitRatio = float64(h) / float64(total)
	}
	return st
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// openFDs counts this process's open file descriptors via /proc — the
// soak harness asserts it stays flat. Returns 0 where /proc is absent
// (non-Linux), which the harness treats as "cannot check".
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	// ReadDir's own descriptor is open while counting; exclude it.
	return len(entries) - 1
}

// SaveHistory archives every cached model as a history "model" record,
// returning the number written. The snapshot replaces the file atomically
// (history.ReplaceFile), so a crash or full disk mid-write cannot destroy
// the previous snapshot. Together with WarmFromHistory it gives the cache
// crash/restart durability without re-running sample pipelines.
func (s *Service) SaveHistory(path string) (int, error) {
	// histMu serializes the snapshot against concurrent checkpoint appends
	// and compactions: a checkpoint landing between snapshot and rename
	// would be silently erased by the rewrite.
	s.histMu.Lock()
	defer s.histMu.Unlock()
	entries := s.models.snapshot()
	// Oldest first so a warm start re-inserts in LRU order.
	sort.Slice(entries, func(i, j int) bool { return entries[i].added.Before(entries[j].added) })
	records := make([]history.Record, 0, len(entries))
	for _, e := range entries {
		records = append(records, e.val.fitted.Record(e.key, e.key))
	}
	// Observation windows follow the models (deterministic key order):
	// the snapshot replaces the whole file, so leaving them out would
	// erase the feedback the checkpoint log had accumulated.
	s.obsMu.RLock()
	keys := make([]string, 0, len(s.obs))
	for k := range s.obs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, o := range s.obs[k] {
			records = append(records, history.NewObservation(k, o.seconds, o.workers))
		}
	}
	s.obsMu.RUnlock()
	if err := history.ReplaceFile(path, records...); err != nil {
		return 0, err
	}
	if path == s.histPath {
		s.resetLogBaseline(len(records))
	}
	return len(records), nil
}

// WarmFromHistory loads "model" records from a history file and refits
// them into the cache (cheap regression refits; no sample runs), and
// replays "observation" records into the feedback windows. Missing files
// are not an error, and individually unreadable records — and
// observations a live /observe would reject (checkActualSeconds) — are
// skipped rather than aborting the warm-up; the skipped count reports
// them so operators can decide whether overwriting the file loses data. A torn
// trailing record (crash mid-append) is recovered, counted in /stats as
// torn_records_recovered, and does not prevent the complete records from
// warming the cache.
func (s *Service) WarmFromHistory(path string) (warmed, skipped int, err error) {
	records, torn, err := history.LoadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	if torn != nil {
		s.tornRecovered.Add(1)
	}
	for _, rec := range records {
		if rec.Observation != nil {
			// Feedback survives restarts: the log's observation records
			// (already capped per key by compaction) rebuild the in-memory
			// windows in log order, under the bound a live /observe checks.
			if o := rec.Observation; checkActualSeconds(o.ActualSeconds) == nil {
				s.recordObservation(o.ModelKey, observation{o.ActualSeconds, o.Workers})
			} else {
				skipped++
			}
			continue
		}
		if rec.Model == nil {
			continue
		}
		fitted, err := core.FittedFromRecord(rec)
		if err != nil {
			skipped++
			continue
		}
		s.models.put(rec.Model.Key, newCachedModel(fitted))
		warmed++
	}
	s.histMu.Lock()
	if path == s.histPath {
		// The warm-started log is the compaction baseline: growth is
		// measured against what survived the restart, so a long-lived key
		// set does not trigger a compaction storm on the first few fits.
		s.resetLogBaseline(len(records))
	}
	s.histMu.Unlock()
	return warmed, skipped, nil
}

// Error is a service error with an HTTP status. Shed (429/503) errors
// carry a Retry-After hint in whole seconds.
type Error struct {
	Status            int
	Msg               string
	RetryAfterSeconds int
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }
