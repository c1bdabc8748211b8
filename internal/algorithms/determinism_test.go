package algorithms

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"testing"

	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/graph"
)

// The engine-determinism pins: for every (algorithm, oracle seed, worker
// count) the exact bits of the run's Profile (per-superstep messages,
// bytes, aggregates, worker seconds — see bsp.Profile.Fingerprint) and of
// the algorithm's output values. The values were captured from the
// pre-rewrite per-superstep message path (the engine that allocated fresh
// outboxes and spawned workers every superstep) and pin the persistent-
// worker engine to it bit for bit: any change to partitioning, message
// order, combiner application order, aggregate merge order or oracle rng
// consumption shows up here as a one-line diff.
//
// To regenerate after an *intentional* semantics change, run:
//
//	PREDICT_CAPTURE_PINS=1 go test ./internal/algorithms -run TestEngineDeterminismPins -v
//
// and paste the printed table (then justify the change in DESIGN.md §7).
var determinismPins = map[string]string{
	"CC/s1/w1":         "4b3cc7b4dc572d8e 74b4429a2fdd70e5",
	"CC/s1/w2":         "fb3a9adeb6d7211d 74b4429a2fdd70e5",
	"CC/s1/w7":         "9623dbbd4e29a67a 74b4429a2fdd70e5",
	"CC/s1234567/w1":   "a1df3e6b50c1b298 74b4429a2fdd70e5",
	"CC/s1234567/w2":   "cf8f35cc5b780688 74b4429a2fdd70e5",
	"CC/s1234567/w7":   "9b40dacc81ceac0a 74b4429a2fdd70e5",
	"CC/s42/w1":        "df37ad9f236a87f2 74b4429a2fdd70e5",
	"CC/s42/w2":        "5981b6f773ead9d0 74b4429a2fdd70e5",
	"CC/s42/w7":        "b57beae676359bde 74b4429a2fdd70e5",
	"NH/s1/w1":         "34bf128e1d9fdefe e52c8fc29dc7c331",
	"NH/s1/w2":         "3bb86d93cc4df3ad e52c8fc29dc7c331",
	"NH/s1/w7":         "d72d8c1e0ef243ab e52c8fc29dc7c331",
	"NH/s1234567/w1":   "9b2ed66ffb452ae8 e52c8fc29dc7c331",
	"NH/s1234567/w2":   "5d11360274930046 e52c8fc29dc7c331",
	"NH/s1234567/w7":   "828bcbfba56b08d4 e52c8fc29dc7c331",
	"NH/s42/w1":        "749870fff7cbec9e e52c8fc29dc7c331",
	"NH/s42/w2":        "3b3eddb2da1440d1 e52c8fc29dc7c331",
	"NH/s42/w7":        "e10e32c870230c38 e52c8fc29dc7c331",
	"PR/s1/w1":         "d7244763ff9f27f6 78ae1f8c95e0f6d1",
	"PR/s1/w2":         "4157537a747a130f f804fa24c1ec6ac2",
	"PR/s1/w7":         "c359a29cf636af1b e71462b81cef4823",
	"PR/s1234567/w1":   "9dc07d6820ad3437 78ae1f8c95e0f6d1",
	"PR/s1234567/w2":   "1e9fde83f6abcccb f804fa24c1ec6ac2",
	"PR/s1234567/w7":   "465564194cc7d87b e71462b81cef4823",
	"PR/s42/w1":        "105170606c7dc21f 78ae1f8c95e0f6d1",
	"PR/s42/w2":        "f70335a1142dbe8e f804fa24c1ec6ac2",
	"PR/s42/w7":        "c4a582465af72871 e71462b81cef4823",
	"SC/s1/w1":         "f84ef1343b9b7fbf 0b56ce85454aec8b",
	"SC/s1/w2":         "3b6810590d7939d6 0b56ce85454aec8b",
	"SC/s1/w7":         "cfcf650f12a43294 0b56ce85454aec8b",
	"SC/s1234567/w1":   "e8d18c4d1aa29bc8 0b56ce85454aec8b",
	"SC/s1234567/w2":   "452e7e94000397bd 0b56ce85454aec8b",
	"SC/s1234567/w7":   "fc94d6f87cd09690 0b56ce85454aec8b",
	"SC/s42/w1":        "39c08b258a4214f5 0b56ce85454aec8b",
	"SC/s42/w2":        "8b74e8f3583dc2d7 0b56ce85454aec8b",
	"SC/s42/w7":        "e0360629d43bb24a 0b56ce85454aec8b",
	"TOPK/s1/w1":       "a204cd653dd16682 1abcded29a76d4c5",
	"TOPK/s1/w2":       "306a7c68c2f09ac6 6016d63752edb3e5",
	"TOPK/s1/w7":       "2b19a4ccc5dfd9d0 0f32e2e3cb06eb05",
	"TOPK/s1234567/w1": "d001170f2de81433 1abcded29a76d4c5",
	"TOPK/s1234567/w2": "2d3d40652f87bd71 6016d63752edb3e5",
	"TOPK/s1234567/w7": "1167ed2dcf8b0021 0f32e2e3cb06eb05",
	"TOPK/s42/w1":      "c88bdeca229a00eb 1abcded29a76d4c5",
	"TOPK/s42/w2":      "9857c75063b1aab1 6016d63752edb3e5",
	"TOPK/s42/w7":      "9cadb4d1028dcc56 0f32e2e3cb06eb05",
}

// determinismGraph builds a fixed 150-vertex graph with mixed degrees: a
// ring (connectivity), arithmetic chords (fan-out) and a hub (skew). The
// structure exercises local and remote traffic at every pinned worker
// count.
func determinismGraph() *graph.Graph {
	const n = 150
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		if i%2 == 0 {
			b.AddEdge(graph.VertexID(i), graph.VertexID((i*7+3)%n))
		}
		if i%5 == 0 && i != 0 {
			b.AddEdge(graph.VertexID(i), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// determinismConfig keeps the oracle's noise and straggler model ON so the
// pinned worker seconds cover the rng consumption order, and disables only
// the memory budget (the test graph is tiny; the budget is irrelevant).
func determinismConfig(workers int, seed uint64) bsp.Config {
	o := cluster.DefaultOracle()
	o.MemoryBudgetBytes = 0
	return bsp.Config{Workers: workers, Seed: seed, Oracle: &o}
}

type pinnedRun struct {
	name string
	run  func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error)
}

func fpHash() (*fnvWriter, func() string) {
	h := &fnvWriter{h: fnv.New64a()}
	return h, h.hex
}

type fnvWriter struct {
	h interface {
		Sum64() uint64
		Write([]byte) (int, error)
	}
}

func (w *fnvWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.h.Write(buf[:])
}
func (w *fnvWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *fnvWriter) hex() string {
	return fmt.Sprintf("%016x", w.h.Sum64())
}

func pinnedRuns() []pinnedRun {
	return []pinnedRun{
		{"PR", func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error) {
			pr := NewPageRank()
			pr.Tau = TauForTolerance(0.001, g.NumVertices())
			ri, ranks, err := pr.RunRanks(g, cfg)
			if err != nil {
				return nil, "", err
			}
			h, hex := fpHash()
			for _, r := range ranks {
				h.f64(r)
			}
			return ri, hex(), nil
		}},
		{"CC", func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error) {
			ri, labels, err := NewConnectedComponents().RunLabels(g, cfg)
			if err != nil {
				return nil, "", err
			}
			h, hex := fpHash()
			for _, l := range labels {
				h.u64(uint64(l))
			}
			return ri, hex(), nil
		}},
		{"NH", func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error) {
			ri, ests, err := NewNeighborhoodEstimation().RunEstimates(g, cfg)
			if err != nil {
				return nil, "", err
			}
			h, hex := fpHash()
			for _, e := range ests {
				h.f64(e)
			}
			return ri, hex(), nil
		}},
		{"TOPK", func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error) {
			ri, lists, err := NewTopKRanking().RunLists(g, cfg)
			if err != nil {
				return nil, "", err
			}
			h, hex := fpHash()
			for _, list := range lists {
				h.u64(uint64(len(list)))
				for _, e := range list {
					h.u64(uint64(e.ID))
					h.f64(e.Rank)
				}
			}
			return ri, hex(), nil
		}},
		{"SC", func(g *graph.Graph, cfg bsp.Config) (*RunInfo, string, error) {
			ri, clusters, err := NewSemiClustering().RunClusters(g, cfg)
			if err != nil {
				return nil, "", err
			}
			h, hex := fpHash()
			for _, cs := range clusters {
				h.u64(uint64(len(cs)))
				for _, c := range cs {
					h.f64(c.Score)
					for _, m := range c.Members {
						h.u64(uint64(m))
					}
				}
			}
			return ri, hex(), nil
		}},
	}
}

// TestEngineDeterminismPins runs every paper algorithm across 3 oracle
// seeds × worker counts {1, 2, 7} and asserts the full Profile and the
// output values are bit-identical to the pinned pre-rewrite engine.
func TestEngineDeterminismPins(t *testing.T) {
	capture := os.Getenv("PREDICT_CAPTURE_PINS") != ""
	g := determinismGraph()
	var keys []string
	got := map[string]string{}
	for _, pr := range pinnedRuns() {
		for _, seed := range []uint64{1, 42, 1234567} {
			for _, workers := range []int{1, 2, 7} {
				key := fmt.Sprintf("%s/s%d/w%d", pr.name, seed, workers)
				ri, valFP, err := pr.run(g, determinismConfig(workers, seed))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = ri.Profile.Fingerprint() + " " + valFP
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
		want, ok := determinismPins[k]
		if !ok {
			t.Errorf("%s: no pinned fingerprint (run with PREDICT_CAPTURE_PINS=1 to capture)", k)
			continue
		}
		if got[k] != want {
			t.Errorf("%s: fingerprint %s, pinned %s — engine output changed bit-wise", k, got[k], want)
		}
	}
}

// TestEngineRunToRunStability re-runs one configuration of every algorithm
// and asserts two runs in the same process are bit-identical — the
// persistent-worker engine must not let goroutine scheduling reach any
// output.
func TestEngineRunToRunStability(t *testing.T) {
	g := determinismGraph()
	for _, pr := range pinnedRuns() {
		cfg := determinismConfig(3, 7)
		ri1, v1, err := pr.run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		ri2, v2, err := pr.run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if f1, f2 := ri1.Profile.Fingerprint(), ri2.Profile.Fingerprint(); f1 != f2 {
			t.Errorf("%s: profile fingerprints differ across runs: %s vs %s", pr.name, f1, f2)
		}
		if v1 != v2 {
			t.Errorf("%s: value fingerprints differ across runs: %s vs %s", pr.name, v1, v2)
		}
	}
}
