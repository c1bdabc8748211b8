package graph

import "slices"

// EpochTable is the shared core of every pooled scratch in the
// sampling→subgraph pipeline: a stamp array where stamp[v] == epoch means
// "v is marked for the current use". Bumping the epoch invalidates every
// mark in O(1), replacing the O(n) clear/refill the pre-rewrite code paid
// per use. The wrap case (once per 2^32 uses) clears the full capacity —
// not just the current length — so stale stamps beyond a smaller graph's
// prefix can never collide with a reissued epoch.
type EpochTable struct {
	epoch uint32
	stamp []uint32
}

// Reset sizes the table for n entries and invalidates all marks. It
// reports whether the backing array was reallocated, so callers can
// resize parallel payload arrays in the same breath.
func (t *EpochTable) Reset(n int) (resized bool) {
	if cap(t.stamp) < n {
		t.stamp = make([]uint32, n)
		t.epoch = 0
		resized = true
	}
	t.stamp = t.stamp[:n]
	t.Bump()
	return resized
}

// Bump starts a fresh epoch over the current length, invalidating all
// marks in O(1).
func (t *EpochTable) Bump() {
	t.epoch++
	if t.epoch == 0 { // wrapped: one real clear, then restart
		clear(t.stamp[:cap(t.stamp)])
		t.epoch = 1
	}
}

func (t *EpochTable) Mark(v VertexID)        { t.stamp[v] = t.epoch }
func (t *EpochTable) Marked(v VertexID) bool { return t.stamp[v] == t.epoch }

// dstWeight pairs a destination with its weight for the stable weighted
// bucket sort.
type dstWeight struct {
	d VertexID
	w float32
}

// sortPairsStable sorts dsts ascending, permuting ws in lockstep and
// keeping equal keys in their incoming order. It is the one weighted
// adjacency sort: Builder.Build uses it (unweighted buckets go to
// slices.Sort; InducedSubgraph needs no sort). Stability is what makes
// Build's "first weight seen wins" dedup contract actually hold: buckets
// arrive in edge-insertion order (the counting-sort scatter preserves it),
// so after a stable sort the first entry of an equal-key run is the first
// edge added. The pair scratch is reused across buckets — one amortized
// allocation per Build, none per bucket; the possibly-grown scratch is
// returned for the next call.
func sortPairsStable(dsts []VertexID, ws []float32, scratch []dstWeight) []dstWeight {
	if len(dsts) < 2 {
		return scratch
	}
	if cap(scratch) < len(dsts) {
		scratch = make([]dstWeight, len(dsts))
	}
	scratch = scratch[:len(dsts)]
	for i := range dsts {
		scratch[i] = dstWeight{dsts[i], ws[i]}
	}
	slices.SortStableFunc(scratch, func(a, b dstWeight) int {
		return int(a.d) - int(b.d)
	})
	for i := range scratch {
		dsts[i] = scratch[i].d
		ws[i] = scratch[i].w
	}
	return scratch
}
