package service

import (
	"sync"

	"predict/internal/core"
)

// maxTemplatesPerModel bounds how many what-if worker counts one cached
// model keeps an assembled answer for. A capacity sweep asks about a
// handful of cluster sizes; past the bound a prediction is recomputed per
// request, never evicted, so a stream of distinct worker counts costs
// time, not memory.
const maxTemplatesPerModel = 32

// cachedModel is one model-cache entry: the fitted model plus the answers
// already assembled from it, so a repeated what-if query is a lookup
// instead of an extrapolation (and, past the blend threshold, a
// regression refit over every training row).
//
// A template is the immutable *PredictResponse computePrediction returns
// — numbers and strings only. It must never reference a *graph.Graph: the
// graph cache, not the model cache, decides how long a graph (possibly an
// mmap region) stays resident. Templates are owned by the entry, so the
// model LRU frees them with the model: there is no second eviction policy
// and nothing to configure.
//
// Validity is by observation epoch. Every recorded observation bumps its
// key's epoch (Service.recordObservation), a template set belongs to
// exactly one epoch, and a lookup at any other epoch misses and drops the
// set — an /observe is visible to the very next prediction.
type cachedModel struct {
	fitted *core.Fitted

	mu        sync.Mutex
	epoch     uint64                   // the epoch every held template was computed at
	templates map[int]*PredictResponse // by requested workers (0 = sample cluster size)
}

// advance moves the template set to epoch, dropping templates computed
// at an older one, and reports how many that invalidated. Callers hold
// m.mu and must check m.epoch == epoch afterwards: their own epoch may be
// the stale one.
func (m *cachedModel) advance(epoch uint64) (dropped int) {
	if m.epoch < epoch {
		dropped = len(m.templates)
		clear(m.templates)
		m.epoch = epoch
	}
	return dropped
}

// template returns the answer held for workers at the key's current
// observation epoch, or nil; dropped counts the older templates the
// lookup invalidated.
func (m *cachedModel) template(workers int, epoch uint64) (tmpl *PredictResponse, dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped = m.advance(epoch)
	if m.epoch != epoch {
		return nil, dropped
	}
	return m.templates[workers], dropped
}

// keep remembers tmpl as the answer for workers at epoch — unless newer
// observations superseded that epoch while it was being computed, or the
// model already holds maxTemplatesPerModel other worker counts. dropped
// counts the older templates the store invalidated.
func (m *cachedModel) keep(workers int, epoch uint64, tmpl *PredictResponse) (dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped = m.advance(epoch)
	if m.epoch != epoch {
		return dropped
	}
	if m.templates == nil {
		m.templates = make(map[int]*PredictResponse)
	}
	if _, held := m.templates[workers]; held || len(m.templates) < maxTemplatesPerModel {
		m.templates[workers] = tmpl
	}
	return dropped
}
