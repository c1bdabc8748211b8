package sampling

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

// The sampling-determinism pins: for every (method, seed, ratio) the exact
// bits of the visited sequence, the induced subgraph's CSR arrays and the
// achieved ratios. The values were captured from the pre-rewrite sampler
// (fresh sort.Slice seed ordering, fresh visited tables, Builder-based
// subgraph induction) and pin the artifact-cache + workspace + direct-CSR
// fast path to it bit for bit: any change to the seed total order, the rng
// consumption, the visit order or the subgraph construction shows up here
// as a one-line diff.
//
// To regenerate after an *intentional* semantics change, run:
//
//	PREDICT_CAPTURE_PINS=1 go test ./internal/sampling -run TestSamplingDeterminismPins -v
//
// and paste the printed table (then justify the change in DESIGN.md §8).
var samplingPins = map[string]string{
	"BRJ/s1/r0.05":        "14bca7b942e5812d",
	"BRJ/s1/r0.15":        "9d05613b313055d1",
	"BRJ/s42/r0.05":       "346c70ddff812529",
	"BRJ/s42/r0.15":       "9ddd7c6486d23b00",
	"BRJ/s1234567/r0.05":  "705c7f57d4257fdf",
	"BRJ/s1234567/r0.15":  "8fa8c98d2cd93bff",
	"RJ/s1/r0.05":         "3d626bdf1b1b65fb",
	"RJ/s1/r0.15":         "1a15fc3512ee0e09",
	"RJ/s42/r0.05":        "fd2988f785451399",
	"RJ/s42/r0.15":        "5a13100c736616e7",
	"RJ/s1234567/r0.05":   "85b33ef0681b2ea3",
	"RJ/s1234567/r0.15":   "d71e2e6aba770dc2",
	"MHRW/s1/r0.05":       "d27a1ae32a89734e",
	"MHRW/s1/r0.15":       "ad5777c187299273",
	"MHRW/s42/r0.05":      "b4eca86bd75e9417",
	"MHRW/s42/r0.15":      "a0194ca9ff330ecd",
	"MHRW/s1234567/r0.05": "1e857ae6c8e6792b",
	"MHRW/s1234567/r0.15": "bb7b2fa72ce1757c",
	"UNI/s1/r0.05":        "7d57c2b7d786d54a",
	"UNI/s1/r0.15":        "1300f941021b3cda",
	"UNI/s42/r0.05":       "8cf16a5e74d3685d",
	"UNI/s42/r0.15":       "37930f202a812c0b",
	"UNI/s1234567/r0.05":  "e33a1c39eed4847f",
	"UNI/s1234567/r0.15":  "33e555252965315e",
}

// sampleFingerprint digests everything downstream code can observe from a
// sample: the visited sequence (drives the transform function and the
// mapping), the induced subgraph's offsets, edges and weights (drives the
// profiled sample run) and the achieved ratios (drive extrapolation).
func sampleFingerprint(r *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range r.Vertices {
		wu(uint64(v))
	}
	wu(uint64(r.Graph.NumVertices()))
	wu(uint64(r.Graph.NumEdges()))
	for v := 0; v < r.Graph.NumVertices(); v++ {
		id := graph.VertexID(v)
		wu(uint64(r.Graph.OutDegree(id)))
		for _, w := range r.Graph.OutNeighbors(id) {
			wu(uint64(w))
		}
		for _, wt := range r.Graph.OutWeights(id) {
			wu(uint64(math.Float32bits(wt)))
		}
		wu(uint64(r.Vertices[id]))
	}
	wu(uint64(int64(r.VertexRatio * 1e15)))
	wu(uint64(int64(r.EdgeRatio * 1e15)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSamplingDeterminismPins draws samples with every method across 3
// seeds x 2 ratios on the fixed scale-free test graph and asserts the
// visited sequences, subgraphs, mappings and ratios are bit-identical to
// the pinned pre-rewrite sampler.
func TestSamplingDeterminismPins(t *testing.T) {
	capture := os.Getenv("PREDICT_CAPTURE_PINS") != ""
	g := gen.BarabasiAlbert(5000, 6, 0.4, 101)
	var keys []string
	got := map[string]string{}
	for _, m := range []Method{BiasedRandomJump, RandomJump, MetropolisHastings, UniformVertex} {
		for _, seed := range []uint64{1, 42, 1234567} {
			for _, ratio := range []float64{0.05, 0.15} {
				key := fmt.Sprintf("%s/s%d/r%g", m, seed, ratio)
				r, err := Sample(g, m, Options{Ratio: ratio, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = sampleFingerprint(r)
				keys = append(keys, key)
			}
		}
	}
	if capture {
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		for _, k := range sorted {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	for _, k := range keys {
		want, ok := samplingPins[k]
		if !ok {
			t.Errorf("%s: no pinned fingerprint (run with PREDICT_CAPTURE_PINS=1 to capture)", k)
			continue
		}
		if got[k] != want {
			t.Errorf("%s: fingerprint %s, pinned %s — sample output changed bit-wise", k, got[k], want)
		}
	}
}

// TestSamplingPinsOnMmap holds an mmap'd snapshot of the pin graph
// against the SAME pinned fingerprints the heap graph satisfies: mapped
// pages must be invisible to the sampler bit for bit.
func TestSamplingPinsOnMmap(t *testing.T) {
	if os.Getenv("PREDICT_CAPTURE_PINS") != "" {
		t.Skip("capture runs on the heap graph only")
	}
	g := gen.BarabasiAlbert(5000, 6, 0.4, 101)

	snapPath := filepath.Join(t.TempDir(), "pin.snap")
	if err := graph.WriteSnapshotFile(snapPath, g); err != nil {
		t.Fatal(err)
	}
	mapped, mappedLive, err := graph.OpenSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mmap path live: %v (false means copy-in fallback, still pinned)", mappedLive)

	for _, m := range []Method{BiasedRandomJump, RandomJump, MetropolisHastings, UniformVertex} {
		for _, seed := range []uint64{1, 42, 1234567} {
			for _, ratio := range []float64{0.05, 0.15} {
				pin := fmt.Sprintf("%s/s%d/r%g", m, seed, ratio)
				r, err := Sample(mapped, m, Options{Ratio: ratio, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", pin, err)
				}
				if got := sampleFingerprint(r); got != samplingPins[pin] {
					t.Errorf("%s: fingerprint %s, pinned %s — mapped pages leaked into sampling",
						pin, got, samplingPins[pin])
				}
			}
		}
	}
}

// TestSamplingRunToRunStability draws the same sample twice in one process
// and asserts bit-identity — workspace reuse across calls must never leak
// one draw's state into the next.
func TestSamplingRunToRunStability(t *testing.T) {
	g := gen.BarabasiAlbert(5000, 6, 0.4, 101)
	for _, m := range []Method{BiasedRandomJump, RandomJump, MetropolisHastings, UniformVertex} {
		opts := Options{Ratio: 0.1, Seed: 9}
		r1, err := Sample(g, m, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		r2, err := Sample(g, m, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if f1, f2 := sampleFingerprint(r1), sampleFingerprint(r2); f1 != f2 {
			t.Errorf("%s: fingerprints differ across runs: %s vs %s", m, f1, f2)
		}
	}
}
