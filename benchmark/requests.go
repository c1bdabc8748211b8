package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Every request list is a pure function of (-seed, stream): the program
// under test receives only these generated requests. Streams keep the
// lists of different clients independent of each other.
const (
	streamWarm        = 1 // + connection index
	streamCold        = 10
	streamMixedCold   = 11
	streamProbeCold   = 12
	streamWarmObserve = 13
	streamLayers      = 14 // and 15
	streamObserve     = 20 // + connection index
)

func newRNG(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)))
}

// numWarmKeys is {wiki, lj, uk, tw} x {PR, CC, NH} at default ratios.
var numWarmKeys = len(snapshotDatasets) * len(warmAlgorithms)

// warmKey names warm key k: its registry dataset and algorithm.
func warmKey(k int) (dataset, algorithm string) {
	return snapshotDatasets[k/len(warmAlgorithms)].name, warmAlgorithms[k%len(warmAlgorithms)]
}

var (
	whatIfWorkers = []int{2, 4, 8, 16, 32, 64}
	// deadlines are SLA deadlines in simulated seconds; index 0 means the
	// request carries none.
	deadlines = []float64{0, 60, 120, 300, 600}
)

// warmRequest is one what-if /predict on a warm key.
type warmRequest struct {
	key  int // warm key index
	body []byte
	// variant identifies (key, workers, deadline): all responses to one
	// variant must be byte-identical apart from elapsed_ms.
	variant int
}

func numWarmVariants() int { return numWarmKeys * len(whatIfWorkers) * len(deadlines) }

// keyPopularity is the popularity order of the warm keys: rank 0 is the
// key Zipf draws most often. The order is fixed, not seeded: which dataset
// and regime the hottest key has decides what a what-if request costs, so a
// seeded order would make two seeds two different workloads. Consecutive
// ranks cycle through the datasets, and each dataset meets each algorithm.
func keyPopularity() []int {
	order := make([]int, numWarmKeys)
	for rank := range order {
		d, block := rank%len(snapshotDatasets), rank/len(snapshotDatasets)
		order[rank] = d*len(warmAlgorithms) + (d+block)%len(warmAlgorithms)
	}
	return order
}

// observedWarmKeys are the warm keys warm_whatif moves into the
// interpolation regime before timing: half of them, alternating along the
// popularity order so that both regimes get hot and cold keys and every
// dataset has a key in each.
func observedWarmKeys() []int {
	var keys []int
	for rank, k := range keyPopularity() {
		if (rank+rank/len(snapshotDatasets))%2 == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// warmRequests generates n what-if requests for one connection: the key
// by Zipf over the popularity order, workers uniform over whatIfWorkers,
// and a deadline on half the requests.
func warmRequests(seed uint64, conn, n int) []warmRequest {
	popularity := keyPopularity()
	r := newRNG(seed, streamWarm+conn)
	zipf := rand.NewZipf(r, 1.2, 1, uint64(numWarmKeys-1))
	out := make([]warmRequest, n)
	for i := range out {
		k := popularity[zipf.Uint64()]
		w := r.IntN(len(whatIfWorkers))
		d := 0
		if r.IntN(2) == 1 {
			d = 1 + r.IntN(len(deadlines)-1)
		}
		dataset, alg := warmKey(k)
		body := fmt.Sprintf(`{"dataset":%q,"algorithm":%q,"workers":%d`, dataset, alg, whatIfWorkers[w])
		if d > 0 {
			body += fmt.Sprintf(`,"deadline_seconds":%g`, deadlines[d])
		}
		out[i] = warmRequest{
			key:     k,
			body:    []byte(body + "}"),
			variant: (k*len(whatIfWorkers)+w)*len(deadlines) + d,
		}
	}
	return out
}

// coldRequest is one /predict whose model key no earlier request used.
type coldRequest struct {
	dataset, algorithm string
	sampleSeed         uint64
	body               []byte
}

func newColdRequest(dataset, algorithm string, sampleSeed uint64) coldRequest {
	return coldRequest{
		dataset: dataset, algorithm: algorithm, sampleSeed: sampleSeed,
		body: []byte(fmt.Sprintf(`{"dataset":%q,"algorithm":%q,"sample_seed":%d}`, dataset, algorithm, sampleSeed)),
	}
}

// sampleSeeds hands out sample seeds that never repeat: stream owns a
// 2^24-wide band of the seed space (seed 1, the default, is the warm
// keys'), and the i-th seed of a list is the i-th of the band counted from
// a start the list's generator draws.
type sampleSeeds struct {
	stream int
	start  uint64
}

const sampleSeedBand = 1<<24 - 2

func newSampleSeeds(r *rand.Rand, stream int) sampleSeeds {
	return sampleSeeds{stream: stream, start: r.Uint64N(sampleSeedBand)}
}

func (s sampleSeeds) at(i int) uint64 {
	return uint64(s.stream)<<24 + 2 + (s.start+uint64(i))%sampleSeedBand
}

// coldRounds generates the cold_fit list: per round one fresh sample
// seed, and for each snapshot dataset the five algorithms back to back,
// so the five fits of a (dataset, seed) share method, ratio and seed.
func coldRounds(seed uint64, rounds int) []coldRequest {
	seeds := newSampleSeeds(newRNG(seed, streamCold), streamCold)
	var out []coldRequest
	for round := range rounds {
		for _, d := range snapshotDatasets {
			for _, a := range coldAlgorithms {
				out = append(out, newColdRequest(d.name, a, seeds.at(round)))
			}
		}
	}
	return out
}

// rotationDatasets are the datasets mixed_contention's cold client, and
// the cold probe, fit PR on in rotation. An odd number of cost classes
// keeps the median inside one class instead of between two.
var rotationDatasets = []string{"lj", "wiki", "uk"}

// rotationColdRequests generates n PR fits in rotation over
// rotationDatasets, each with its own sample seed from stream's band: no
// two share a sample.
func rotationColdRequests(seed uint64, stream, n int) []coldRequest {
	seeds := newSampleSeeds(newRNG(seed, stream), stream)
	out := make([]coldRequest, n)
	for i := range out {
		out[i] = newColdRequest(rotationDatasets[i%len(rotationDatasets)], "PR", seeds.at(i))
	}
	return out
}

// observeCycle is one observe_feedback cycle on a warm key: one /observe
// whose actual runtime is the key's predicted seconds times factor, then
// three /predict at the given what-if worker count.
type observeCycle struct {
	key     int
	factor  float64
	workers int
}

// lognormalFactor draws exp(N(0, sigma)): runtime noise is skewed, not
// symmetric.
func lognormalFactor(r *rand.Rand, sigma float64) float64 {
	return math.Exp(r.NormFloat64() * sigma)
}

// observeCycles generates n cycles for one of conns connections. The
// warm keys are split between the connections, so a key's observations
// arrive in one order and its predictions can be checked exactly.
func observeCycles(seed uint64, conn, conns, n int) []observeCycle {
	r := newRNG(seed, streamObserve+conn)
	var mine []int
	for k := range numWarmKeys {
		if k%conns == conn {
			mine = append(mine, k)
		}
	}
	out := make([]observeCycle, n)
	for i := range out {
		out[i] = observeCycle{
			key:     mine[r.IntN(len(mine))],
			factor:  lognormalFactor(r, 0.15),
			workers: whatIfWorkers[r.IntN(len(whatIfWorkers))],
		}
	}
	return out
}

// warmObserveFactors are the factors of the observations warm_whatif
// records before timing: perKey for each observed key.
func warmObserveFactors(seed uint64, perKey int) [][]float64 {
	r := newRNG(seed, streamWarmObserve)
	out := make([][]float64, len(observedWarmKeys()))
	for i := range out {
		for range perKey {
			out[i] = append(out[i], lognormalFactor(r, 0.15))
		}
	}
	return out
}

func observeBody(modelKey string, actualSeconds float64) []byte {
	return []byte(fmt.Sprintf(`{"model_key":%q,"actual_seconds":%g}`, modelKey, actualSeconds))
}

func warmPredictBody(key, workers int) []byte {
	dataset, alg := warmKey(key)
	return []byte(fmt.Sprintf(`{"dataset":%q,"algorithm":%q,"workers":%d}`, dataset, alg, workers))
}
