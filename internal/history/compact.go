// Log compaction. Continuous checkpointing appends one "model" record per
// fitted model, so a long-lived service's history file accumulates stale
// generations of the same model key. CompactFile rewrites the log keeping
// only the newest record per key — crash-safely (atomicfile.Replace): any
// instant of death leaves either the old log or the new one, both of
// which warm-start to exactly the same model set.
package history

import (
	"fmt"
	"io"

	"predict/internal/atomicfile"
	"predict/internal/faultinject"
)

// MaxObservationsPerKey bounds how many "observation" records per model
// key survive a compaction (the newest win). The bound matches the
// service's in-memory observation window: older observations have already
// shaped the blend as much as they ever will, and an unbounded feedback
// stream would make the log grow per *request* instead of per fit —
// exactly the unbounded growth compaction exists to prevent.
const MaxObservationsPerKey = 64

// CompactRecords returns the log's live suffix: for each model key, only
// the newest model record survives, holding its last position in the log
// so a warm start replays insertions in the same order the uncompacted
// log would. Observation records are capped at the newest
// MaxObservationsPerKey per model key, kept in log order. Records that
// are neither (plain profiled runs, which TrainingRunsFor still trains
// on) are kept verbatim in place — they are training data, not cache
// generations, and compaction must never drop data it cannot reconstruct.
func CompactRecords(records []Record) []Record {
	last := make(map[string]int, len(records))
	obsSeen := map[string]int{}
	for i, r := range records {
		if r.Model != nil {
			last[r.Model.Key] = i
		}
		if r.Observation != nil {
			obsSeen[r.Observation.ModelKey]++
		}
	}
	// An observation survives when fewer than MaxObservationsPerKey of its
	// key follow it — i.e. the newest window, in original order.
	obsAfter := make(map[string]int, len(obsSeen))
	out := make([]Record, 0, len(last))
	for i, r := range records {
		if r.Model != nil && last[r.Model.Key] != i {
			continue
		}
		if r.Observation != nil {
			k := r.Observation.ModelKey
			obsAfter[k]++
			if obsSeen[k]-obsAfter[k] >= MaxObservationsPerKey {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// CompactFile rewrites the log at path to its compacted form, returning
// how many records the compacted log holds. A torn trailing record (crash
// mid-append) is dropped by the rewrite — it was never a complete record.
// The rewrite is atomic (atomicfile.Replace): a crash at any point,
// including the injected one between durability and rename, leaves a log
// that warm-starts to the same model set.
func CompactFile(path string) (kept int, err error) {
	records, _, err := LoadFile(path)
	if err != nil {
		return 0, fmt.Errorf("history: compacting %s: %w", path, err)
	}
	records = CompactRecords(records)
	err = atomicfile.Replace(path, writeRecords(records), func() error {
		fault := faultinject.Fire(faultinject.PointHistoryCompact)
		if fault == nil {
			return nil
		}
		fault.Sleep()
		// The scheduled crash strikes in the window where the new log is
		// durable but not yet published — the old log must win.
		fault.MaybeKill()
		return fault.Err
	})
	if err != nil {
		return 0, err
	}
	return len(records), nil
}

// ReplaceFile atomically replaces the file at path with records: any
// instant of death leaves either the old file or the new one whole.
func ReplaceFile(path string, records ...Record) error {
	return atomicfile.Replace(path, writeRecords(records), nil)
}

// writeRecords is the payload of a history rewrite.
func writeRecords(records []Record) func(io.Writer) error {
	return func(w io.Writer) error { return Write(w, records...) }
}
