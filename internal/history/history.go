// Package history persists profiled runs so later predictions can train
// their cost models on them. The paper's training methodology (§3.4)
// assumes exactly this: "measurements of previous runs of the algorithm
// that were given different datasets as input (if such runs exist) ...
// Such historical runs are typically available for analytical applications
// that are executed repetitively over newly arriving data sets."
//
// A Store is a JSON-lines file of Records; each Record carries the
// algorithm name, a dataset label, and the per-iteration feature vectors
// plus simulated seconds of one run.
package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"predict/internal/algorithms"
	"predict/internal/costmodel"
	"predict/internal/faultinject"
	"predict/internal/features"
)

// Record is one archived run.
type Record struct {
	// Algorithm is the algorithm's Name(); predictions only train on
	// records of the same algorithm (cost factors are per-algorithm,
	// §3.4).
	Algorithm string `json:"algorithm"`
	// Dataset labels the input (free-form, e.g. "UK2002-sim scale=1").
	Dataset string `json:"dataset"`
	// Kind distinguishes "actual" runs from "sample" runs; "model"
	// records carry a fitted cache entry and "observation" records carry
	// one observed actual runtime fed back through POST /observe.
	Kind string `json:"kind"`
	// FeatureNames fixes the column order of Iterations vectors
	// (features.Pool() at write time). A record whose names differ from
	// this build's pool is refused, never migrated.
	FeatureNames []features.Name `json:"feature_names"`
	// Iterations holds one row per superstep: the feature vector followed
	// by the simulated seconds.
	Iterations []IterationRow `json:"iterations"`
	// Model optionally carries the extrapolation metadata of a fitted
	// cost-model cache entry (kind "model"), letting a prediction service
	// warm its cache from history: the rows above retrain the regression
	// (cheap) while Model restores the sample-scale context the expensive
	// sample runs produced. Absent on plain run records.
	Model *ModelMeta `json:"model,omitempty"`
	// Observation carries one observed actual runtime (kind
	// "observation"), keyed to the model key whose prediction it grades.
	// Absent on every other record kind.
	Observation *ObservationMeta `json:"observation,omitempty"`
}

// KindObservation is the Record.Kind of observed-runtime feedback records.
const KindObservation = "observation"

// ObservationMeta is the payload of one "observation" record: an actual
// runtime reported back for a prediction, keyed to the model that
// produced it. Observation records ride the same fsync'd checkpoint
// append and compaction log as "model" records, so the feedback a blended
// estimator depends on survives a crash exactly as far as the models do.
type ObservationMeta struct {
	// ModelKey is the service's canonical cache key of the model whose
	// prediction this observation grades.
	ModelKey string `json:"model_key"`
	// ActualSeconds is the observed superstep-phase runtime.
	ActualSeconds float64 `json:"actual_seconds"`
	// Workers is the worker count the observed run executed on (zero when
	// the reporter did not say).
	Workers int `json:"workers,omitempty"`
}

// NewObservation builds an "observation" record for a model key.
func NewObservation(modelKey string, actualSeconds float64, workers int) Record {
	return Record{
		Kind: KindObservation,
		Observation: &ObservationMeta{
			ModelKey:      modelKey,
			ActualSeconds: actualSeconds,
			Workers:       workers,
		},
	}
}

// ModelMeta is the extrapolation context of one fitted cost model — the
// scalars a core.Fitted needs beyond its training rows. Together with a
// Record's iteration rows it reconstructs a cache entry without re-running
// the sample pipeline.
type ModelMeta struct {
	// Key is the service's canonical cache key (algorithm, cluster config,
	// sampling config, training ratios, dataset identity).
	Key string `json:"key"`
	// SampleVertices/SampleEdges size the sample graph (extrapolation
	// denominators).
	SampleVertices int   `json:"sample_vertices"`
	SampleEdges    int64 `json:"sample_edges"`
	// SampleVertexRatio/SampleEdgeRatio are the achieved sampling ratios.
	SampleVertexRatio float64 `json:"sample_vertex_ratio"`
	SampleEdgeRatio   float64 `json:"sample_edge_ratio"`
	// SampleCriticalShare is the structural critical-path share of the
	// sample graph at SampleWorkers.
	SampleCriticalShare float64 `json:"sample_critical_share"`
	// ProfiledCriticalShare is the profiled critical share of the sample
	// run.
	ProfiledCriticalShare float64 `json:"profiled_critical_share"`
	// SampleRunSeconds is the simulated planning cost of the sample run.
	SampleRunSeconds float64 `json:"sample_run_seconds"`
	// SampleWorkers is the sample cluster's resolved worker count.
	SampleWorkers int `json:"sample_workers"`
	// Mode is the feature-reduction mode (features.Mode) the rows encode.
	Mode int `json:"mode"`
	// RemoteBytesPerIter holds raw per-iteration remote message bytes for
	// the Figure 6 remote-bytes prediction.
	RemoteBytesPerIter []float64 `json:"remote_bytes_per_iter,omitempty"`
	// TrainingRows is the full training matrix the model was fitted on
	// (main sample run, additional-ratio runs, history) — the refit input.
	// The Record's Iterations rows are only the main sample run's, which
	// double as the extrapolation vectors.
	TrainingRows []IterationRow `json:"training_rows,omitempty"`
	// DisableSelection reproduces the costmodel.Options the model was
	// fitted under, so a refit selects the same features.
	DisableSelection bool `json:"disable_selection,omitempty"`
}

// IterationRow is one superstep's features and runtime.
type IterationRow struct {
	Features []float64 `json:"features"`
	Seconds  float64   `json:"seconds"`
}

// FromRun converts a profiled run into a Record under the given feature
// mode.
func FromRun(ri *algorithms.RunInfo, dataset, kind string, mode features.Mode) Record {
	rec := Record{
		Algorithm:    ri.Algorithm,
		Dataset:      dataset,
		Kind:         kind,
		FeatureNames: features.Pool(),
	}
	for _, it := range features.FromProfile(ri.Profile, mode) {
		rec.Iterations = append(rec.Iterations, IterationRow{
			Features: it.Vector,
			Seconds:  it.Seconds,
		})
	}
	return rec
}

// TrainingRun converts a Record back into cost-model training data. It
// validates the feature schema.
func (r Record) TrainingRun() (costmodel.TrainingRun, error) {
	pool := features.Pool()
	if len(r.FeatureNames) != len(pool) {
		return costmodel.TrainingRun{}, fmt.Errorf(
			"history: record %q has %d features, this build expects %d",
			r.Dataset, len(r.FeatureNames), len(pool))
	}
	for i, n := range r.FeatureNames {
		if n != pool[i] {
			return costmodel.TrainingRun{}, fmt.Errorf(
				"history: record %q feature %d is %q, expected %q", r.Dataset, i, n, pool[i])
		}
	}
	tr := costmodel.TrainingRun{Source: r.Kind + " " + r.Dataset}
	for _, row := range r.Iterations {
		if len(row.Features) != len(pool) {
			return costmodel.TrainingRun{}, fmt.Errorf(
				"history: record %q has a row with %d features", r.Dataset, len(row.Features))
		}
		tr.Iters = append(tr.Iters, features.IterationFeatures{
			Vector:  append(features.Vector(nil), row.Features...),
			Seconds: row.Seconds,
		})
	}
	return tr, nil
}

// Write appends records to w as JSON lines.
func Write(w io.Writer, records ...Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("history: encoding record %q: %w", r.Dataset, err)
		}
	}
	return bw.Flush()
}

// Read parses all records from a JSON-lines stream.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("history: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// AppendFileSync appends records to a JSON-lines file, creating it (mode
// 0644) if needed, and fsyncs it before close: the record is durable
// against power loss when it returns. The close error is propagated: on
// many filesystems a full disk only surfaces at close, and an append that
// reports success while dropping the record would silently starve future
// warm-starts.
func AppendFileSync(path string, records ...Record) error {
	// Encode before opening the file: an encoding error must not leave a
	// half-written record behind, and a single Write keeps the torn-write
	// window (and the injectable partial-write surface) to one syscall.
	var buf bytes.Buffer
	if err := Write(&buf, records...); err != nil {
		return err
	}
	payload := buf.Bytes()
	var injected error
	killAfterWrite := false
	if fault := faultinject.Fire(faultinject.PointHistoryAppend); fault != nil {
		fault.Sleep()
		torn := fault.PartialBytes > 0 && fault.PartialBytes < len(payload) &&
			(fault.Err != nil || fault.Kill)
		if torn {
			// Simulated crash mid-append: persist a prefix of the payload
			// for real, then report the failure (or die for real).
			payload = payload[:fault.PartialBytes]
			injected = fault.Err
		}
		switch {
		case fault.Kill && !torn:
			// Scheduled crash before any byte lands: the record is lost
			// whole, the log stays clean.
			faultinject.RaiseKill()
		case fault.Kill && torn:
			// Die only after the torn prefix is really in the file.
			killAfterWrite = true
		case fault.Err != nil && !torn:
			return fault.Err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(payload)
	if killAfterWrite {
		// A SIGKILL loses nothing already written into the page cache, so
		// the torn prefix survives for the restarted process to recover.
		faultinject.RaiseKill()
	}
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	switch {
	case werr != nil:
		return fmt.Errorf("history: appending to %s: %w", path, werr)
	case serr != nil:
		return fmt.Errorf("history: syncing %s: %w", path, serr)
	case cerr != nil:
		return fmt.Errorf("history: closing %s: %w", path, cerr)
	}
	return injected
}

// TornTail reports a trailing incomplete record recovered (skipped) by
// LoadFile — the signature a crash or power loss mid-append leaves behind.
type TornTail struct {
	// Offset is the byte offset where the torn record begins.
	Offset int64
	// Bytes is the length of the discarded fragment.
	Bytes int
	// Err is the decode error the fragment produced.
	Err error
}

// String renders the tear for warm-up logs: where it begins, how many
// bytes were discarded, and the decode error the fragment produced.
func (t *TornTail) String() string {
	return fmt.Sprintf("torn trailing record at offset %d (%d bytes): %v", t.Offset, t.Bytes, t.Err)
}

// LoadFile reads all records from a JSON-lines file, tolerating a torn
// trailing record: if the final line is incomplete (crash mid-append), the
// complete records still load and the tail is reported via TornTail rather
// than failing the whole file — one interrupted append must never disable
// warm-start. Corruption anywhere before the final line is still an error:
// that is not a crash signature, and records silently skipped mid-file
// would train on a silently biased history.
func LoadFile(path string) ([]Record, *TornTail, error) {
	if fault := faultinject.Fire(faultinject.PointHistoryLoad); fault != nil {
		fault.Sleep()
		if fault.Err != nil {
			return nil, nil, fault.Err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parseLines(data)
}

func parseLines(data []byte) ([]Record, *TornTail, error) {
	var out []Record
	var off int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		terminated := nl >= 0
		if terminated {
			line = data[:nl]
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var rec Record
			if err := json.Unmarshal(trimmed, &rec); err != nil {
				if terminated {
					return nil, nil, fmt.Errorf(
						"history: record %d at offset %d: %w", len(out), off, err)
				}
				return out, &TornTail{Offset: off, Bytes: len(line), Err: err}, nil
			}
			out = append(out, rec)
		}
		if !terminated {
			break
		}
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return out, nil, nil
}

// TrainingRunsFor extracts the training data of every record matching the
// algorithm name, skipping (and reporting) records from other algorithms.
func TrainingRunsFor(records []Record, algorithm string) ([]costmodel.TrainingRun, int, error) {
	var out []costmodel.TrainingRun
	skipped := 0
	for _, r := range records {
		if r.Algorithm != algorithm {
			skipped++
			continue
		}
		tr, err := r.TrainingRun()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, tr)
	}
	return out, skipped, nil
}
