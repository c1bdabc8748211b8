package core

import (
	"fmt"

	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/history"
)

// Record converts a Fitted into a history record of kind "model": the main
// sample run's iteration rows plus the ModelMeta extrapolation context and
// full training matrix. key is the caller's canonical cache key, dataset a
// free-form input label.
func (f *Fitted) Record(key, dataset string) history.Record {
	rec := history.Record{
		Algorithm:    f.Algorithm,
		Dataset:      dataset,
		Kind:         "model",
		FeatureNames: features.Pool(),
		Model: &history.ModelMeta{
			Key:                   key,
			SampleVertices:        f.SampleVertices,
			SampleEdges:           f.SampleEdges,
			SampleVertexRatio:     f.SampleVertexRatio,
			SampleEdgeRatio:       f.SampleEdgeRatio,
			SampleCriticalShare:   f.SampleCriticalShare,
			ProfiledCriticalShare: f.ProfiledCriticalShare,
			SampleRunSeconds:      f.SampleRunSeconds,
			SampleWorkers:         f.SampleWorkers,
			Mode:                  int(f.Mode),
			RemoteBytesPerIter:    append([]float64(nil), f.RemoteBytesPerIter...),
			DisableSelection:      f.CostModel.DisableSelection,
		},
	}
	for _, it := range f.IterFeatures {
		rec.Iterations = append(rec.Iterations, history.IterationRow{
			Features: it.Vector, Seconds: it.Seconds,
		})
	}
	for _, it := range f.TrainingRows {
		rec.Model.TrainingRows = append(rec.Model.TrainingRows, history.IterationRow{
			Features: it.Vector, Seconds: it.Seconds,
		})
	}
	return rec
}

// FittedFromRecord rebuilds a cacheable Fitted from a persisted "model"
// record by refitting the regression on the archived training matrix —
// cheap relative to the sample runs the record stands in for. The rebuilt
// Fitted equals the one the record was taken from but for its
// SamplesDrawn/SamplesReused counters. A record without training rows is
// refused: every model record this build writes carries them.
func FittedFromRecord(rec history.Record) (*Fitted, error) {
	if rec.Model == nil {
		return nil, fmt.Errorf("core: record %q is not a model record", rec.Dataset)
	}
	// Validate the feature schema and convert the extrapolation rows.
	tr, err := rec.TrainingRun()
	if err != nil {
		return nil, err
	}
	meta := rec.Model
	mode := features.Mode(meta.Mode)
	if mode != features.ModeCriticalShare && mode != features.ModeMeanWorker {
		return nil, fmt.Errorf("core: persisted model %q has feature mode %d, this build knows %d and %d",
			meta.Key, meta.Mode, features.ModeCriticalShare, features.ModeMeanWorker)
	}
	opts := costmodel.Options{DisableSelection: meta.DisableSelection}
	training := rowsToIters(meta.TrainingRows)
	if len(training) == 0 {
		return nil, fmt.Errorf("core: persisted model %q has no training rows", meta.Key)
	}
	model, err := costmodel.Train(
		[]costmodel.TrainingRun{{Source: "persisted " + rec.Dataset, Iters: training}}, opts)
	if err != nil {
		return nil, fmt.Errorf("core: refitting persisted model %q: %w", meta.Key, err)
	}
	return &Fitted{
		Algorithm:             rec.Algorithm,
		Iterations:            len(tr.Iters),
		Model:                 model,
		IterFeatures:          tr.Iters,
		RemoteBytesPerIter:    append([]float64(nil), meta.RemoteBytesPerIter...),
		SampleVertices:        meta.SampleVertices,
		SampleEdges:           meta.SampleEdges,
		SampleVertexRatio:     meta.SampleVertexRatio,
		SampleEdgeRatio:       meta.SampleEdgeRatio,
		SampleCriticalShare:   meta.SampleCriticalShare,
		ProfiledCriticalShare: meta.ProfiledCriticalShare,
		SampleRunSeconds:      meta.SampleRunSeconds,
		SampleWorkers:         meta.SampleWorkers,
		Mode:                  mode,
		TrainingRows:          training,
		CostModel:             opts,
	}, nil
}

// rowsToIters converts persisted rows back into feature observations.
func rowsToIters(rows []history.IterationRow) []features.IterationFeatures {
	var out []features.IterationFeatures
	for _, row := range rows {
		out = append(out, features.IterationFeatures{
			Vector:  append(features.Vector(nil), row.Features...),
			Seconds: row.Seconds,
		})
	}
	return out
}
