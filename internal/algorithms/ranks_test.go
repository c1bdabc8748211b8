package algorithms

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"predict/internal/bsp"
	"predict/internal/gen"
	"predict/internal/graph"
)

// ranksGraph returns a fresh copy of the deposited-ranks tests' graph.
func ranksGraph() *graph.Graph { return gen.BarabasiAlbert(400, 4, 0.5, 31) }

func ranksTopK(n int) TopKRanking {
	tk := NewTopKRanking()
	tk.K = 5
	tk.PageRank.Tau = TauForTolerance(0.001, n)
	return tk
}

// ownPreRun runs tk on a fresh copy of the graph, where nothing is
// deposited: top-k with its own PageRank pre-run.
func ownPreRun(t *testing.T, tk TopKRanking, cfg bsp.Config) (string, [][]RankEntry) {
	t.Helper()
	ri, lists, err := tk.RunLists(ranksGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ri.Profile.Fingerprint(), lists
}

// deposited reports whether g holds ranks for pr under cfg, without
// disturbing what it holds when it does.
func deposited(g *graph.Graph, pr PageRank, cfg bsp.Config) bool {
	_, reused, _ := g.Memo(ranksMemo{}).Do(pr.ranksKey(cfg), nil, func() (any, error) {
		return nil, errNotDeposited
	})
	return reused
}

// errNotDeposited fails deposited's probe: a failed compute is not
// remembered, so probing leaves no trace.
var errNotDeposited = errors.New("not deposited")

// TestTopKTakesDepositedRanks: after a PageRank run on the same graph with
// the same parameters and configuration, top-k finds the ranks on the
// graph and produces exactly what it produces with its own pre-run.
func TestTopKTakesDepositedRanks(t *testing.T) {
	g := ranksGraph()
	tk := ranksTopK(g.NumVertices())
	cfg := quietCfg(3)
	wantPrint, wantLists := ownPreRun(t, tk, cfg)

	if deposited(g, tk.PageRank, cfg) {
		t.Fatal("a fresh graph holds ranks")
	}
	_, ranks, err := tk.PageRank.RunRanks(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !deposited(g, tk.PageRank, cfg) {
		t.Fatal("RunRanks left no ranks on the graph")
	}
	// The caller owns the slice RunRanks returned; scribbling on it must
	// not reach the deposit.
	for i := range ranks {
		ranks[i] = -1
	}
	ri, lists, err := tk.RunLists(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Profile.Fingerprint() != wantPrint || !reflect.DeepEqual(lists, wantLists) {
		t.Fatal("top-k on deposited ranks differs from top-k with its own pre-run")
	}

	// The other way round: top-k first (its pre-run deposits), PageRank
	// second — which still runs and profiles — and top-k again.
	g2 := ranksGraph()
	if _, _, err := tk.RunLists(g2, cfg); err != nil {
		t.Fatal(err)
	}
	if !deposited(g2, tk.PageRank, cfg) {
		t.Fatal("top-k's own pre-run left no ranks on the graph")
	}
	pri, _, err := tk.PageRank.RunRanks(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := tk.PageRank.Run(ranksGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pri.Profile.Fingerprint() != alone.Profile.Fingerprint() {
		t.Fatal("PageRank after top-k differs from PageRank alone")
	}
}

// TestDepositedRanksMissOnAnyDifference: ranks are keyed by everything
// that determines them. A deposit under one configuration is poisoned
// here (so taking it by mistake shows), then top-k runs under
// configurations differing in one thing each — a PageRank parameter, the
// worker count, the iteration cap — and must match its own pre-run every
// time; under the poisoned configuration itself it must not, which proves
// the poison would have shown.
func TestDepositedRanksMissOnAnyDifference(t *testing.T) {
	n := ranksGraph().NumVertices()
	base, cfg := ranksTopK(n), quietCfg(3)
	poisoned := func() *graph.Graph {
		g := ranksGraph()
		_, _, _ = g.Memo(ranksMemo{}).Do(base.PageRank.ranksKey(cfg), nil, func() (any, error) {
			return make([]float64, n), nil // all-zero ranks
		})
		return g
	}

	looserTau, damped, capped := base, base, base
	looserTau.PageRank.Tau *= 10
	damped.PageRank.Damping = 0.8
	capped.PageRank.MaxIterations = 150
	cases := []struct {
		name string
		tk   TopKRanking
		cfg  bsp.Config
	}{
		{"tau", looserTau, cfg},
		{"damping", damped, cfg},
		{"iteration cap", capped, cfg},
		{"workers", base, quietCfg(7)},
		{"default workers", base, quietCfg(0)},
	}
	for _, c := range cases {
		wantPrint, wantLists := ownPreRun(t, c.tk, c.cfg)
		ri, lists, err := c.tk.RunLists(poisoned(), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ri.Profile.Fingerprint() != wantPrint || !reflect.DeepEqual(lists, wantLists) {
			t.Errorf("%s differs from the depositor's, yet top-k took the deposited ranks", c.name)
		}
	}

	_, wantLists := ownPreRun(t, base, cfg)
	_, lists, err := base.RunLists(poisoned(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(lists, wantLists) {
		t.Fatal("the poisoned deposit did not show under its own key: this test detects nothing")
	}

	// Equal configurations spelled differently share a key: zero workers
	// is bsp.DefaultWorkers, a nil oracle the default one.
	if base.PageRank.ranksKey(bsp.Config{}) != base.PageRank.ranksKey(bsp.Config{Workers: bsp.DefaultWorkers, MaxSupersteps: 500}) {
		t.Error("a configuration and its resolved spelling key differently")
	}
}

// TestDepositedRanksConcurrently: PageRank and top-k racing on one graph,
// as a service fitting both at once on one sample does, each produce
// what they produce alone.
func TestDepositedRanksConcurrently(t *testing.T) {
	n := ranksGraph().NumVertices()
	tk, cfg := ranksTopK(n), quietCfg(3)
	wantTopK, wantLists := ownPreRun(t, tk, cfg)
	alone, err := tk.PageRank.Run(ranksGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPR := alone.Profile.Fingerprint()

	g := ranksGraph()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ri, err := tk.PageRank.Run(g, cfg)
				if err != nil || ri.Profile.Fingerprint() != wantPR {
					t.Errorf("PageRank beside top-k: err %v, or a different profile", err)
				}
				return
			}
			ri, lists, err := tk.RunLists(g, cfg)
			if err != nil || ri.Profile.Fingerprint() != wantTopK || !reflect.DeepEqual(lists, wantLists) {
				t.Errorf("top-k beside PageRank: err %v, or a different result", err)
			}
		}()
	}
	wg.Wait()
}
