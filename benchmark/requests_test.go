package main

import (
	"bytes"
	"fmt"
	"testing"
)

// everyList renders every request list a seed generates as bytes.
func everyList(seed uint64) []byte {
	var b bytes.Buffer
	for conn := range loadConns {
		for _, r := range warmRequests(seed, conn, 500) {
			fmt.Fprintf(&b, "%d %d %s\n", r.key, r.variant, r.body)
		}
		for _, c := range observeCycles(seed, conn, loadConns, 500) {
			fmt.Fprintf(&b, "%d %v %d\n", c.key, c.factor, c.workers)
		}
	}
	for _, list := range [][]coldRequest{coldRounds(seed, 3), rotationColdRequests(seed, streamMixedCold, 50)} {
		for _, r := range list {
			fmt.Fprintf(&b, "%s\n", r.body)
		}
	}
	fmt.Fprintln(&b, warmObserveFactors(seed, observesPerKey))
	return b.Bytes()
}

func TestRequestListsAreAPureFunctionOfTheSeed(t *testing.T) {
	if !bytes.Equal(everyList(7), everyList(7)) {
		t.Error("the same seed generated different request lists")
	}
	if bytes.Equal(everyList(7), everyList(8)) {
		t.Error("different seeds generated identical request lists")
	}
}

func TestWarmRequestsCoverKeysWorkersAndDeadlines(t *testing.T) {
	reqs := warmRequests(3, 0, 4000)
	keys := map[int]int{}
	withDeadline := 0
	for _, r := range reqs {
		keys[r.key]++
		if bytes.Contains(r.body, []byte("deadline_seconds")) {
			withDeadline++
		}
		if r.variant < 0 || r.variant >= numWarmVariants() {
			t.Fatalf("variant %d out of range", r.variant)
		}
	}
	if len(keys) != numWarmKeys {
		t.Errorf("4000 Zipf draws reached %d of %d warm keys", len(keys), numWarmKeys)
	}
	popular := keyPopularity()
	if keys[popular[0]] <= keys[popular[numWarmKeys-1]] {
		t.Errorf("rank 0 drawn %d times, the last rank %d: not Zipf", keys[popular[0]], keys[popular[numWarmKeys-1]])
	}
	if withDeadline < 1800 || withDeadline > 2200 {
		t.Errorf("%d of 4000 requests carry a deadline, want about half", withDeadline)
	}
}

func TestColdRequestsNeverShareAModelKeyWithTheWarmKeys(t *testing.T) {
	seen := map[string]bool{}
	lists := [][]coldRequest{coldRounds(5, 4), rotationColdRequests(5, streamMixedCold, 3000), rotationColdRequests(5, streamProbeCold, 1000)}
	for _, list := range lists {
		for _, r := range list {
			if r.sampleSeed <= 1 {
				t.Fatalf("cold request uses the default sample seed: %s", r.body)
			}
			id := fmt.Sprint(r.dataset, r.algorithm, r.sampleSeed)
			if seen[id] {
				t.Fatalf("two cold requests share a model key: %s", r.body)
			}
			seen[id] = true
		}
	}
	// A round shares one sample seed across its datasets and algorithms.
	round := coldRounds(5, 1)
	if len(round) != len(snapshotDatasets)*len(coldAlgorithms) {
		t.Fatalf("a round has %d fits", len(round))
	}
	for _, r := range round {
		if r.sampleSeed != round[0].sampleSeed {
			t.Errorf("a round mixes sample seeds: %s", r.body)
		}
	}
}

func TestObserveCyclesSplitKeysBetweenConnections(t *testing.T) {
	owner := map[int]int{}
	for conn := range loadConns {
		for _, c := range observeCycles(9, conn, loadConns, 1000) {
			if o, ok := owner[c.key]; ok && o != conn {
				t.Fatalf("key %d is observed by connections %d and %d", c.key, o, conn)
			}
			owner[c.key] = conn
			if c.factor <= 0 {
				t.Fatalf("factor %v is not a positive runtime multiple", c.factor)
			}
		}
	}
	if len(owner) != numWarmKeys {
		t.Errorf("cycles reach %d of %d warm keys", len(owner), numWarmKeys)
	}
}

func TestPopularityOrderSpreadsDatasetsAndRegimes(t *testing.T) {
	order := keyPopularity()
	seen := map[int]bool{}
	for _, k := range order {
		seen[k] = true
	}
	if len(seen) != numWarmKeys {
		t.Fatalf("popularity order %v is not a permutation of the warm keys", order)
	}
	observed := observedWarmKeys()
	if len(observed) != numWarmKeys/2 {
		t.Fatalf("%d observed keys, want %d", len(observed), numWarmKeys/2)
	}
	perDataset := map[string]int{}
	for _, k := range observed {
		dataset, _ := warmKey(k)
		perDataset[dataset]++
	}
	for _, d := range snapshotDatasets {
		if n := perDataset[d.name]; n < 1 || n > 2 {
			t.Errorf("dataset %s has %d observed keys, want 1 or 2", d.name, n)
		}
	}
}
