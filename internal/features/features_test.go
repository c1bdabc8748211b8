package features

import (
	"testing"

	"predict/internal/bsp"
	"predict/internal/cluster"
)

func sampleProfile() *bsp.Profile {
	return &bsp.Profile{
		NumWorkers:     2,
		GraphVertices:  100,
		GraphEdges:     1000,
		WorkerVertices: []int64{50, 50},
		WorkerOutEdges: []int64{600, 400},
		Supersteps: []bsp.SuperstepProfile{
			{
				Workers: []cluster.WorkerLoad{
					{ActiveVertices: 50, TotalVertices: 50, LocalMessages: 100,
						RemoteMessages: 200, LocalMessageBytes: 800, RemoteMessageBytes: 1600},
					{ActiveVertices: 50, TotalVertices: 50, LocalMessages: 100,
						RemoteMessages: 200, LocalMessageBytes: 800, RemoteMessageBytes: 1600},
				},
				Seconds: 2.5,
			},
		},
	}
}

func TestPoolOrderStable(t *testing.T) {
	want := []Name{ActVert, TotVert, LocMsg, RemMsg, LocMsgSize, RemMsgSize, AvgMsgSize}
	got := Pool()
	if len(got) != len(want) {
		t.Fatalf("Pool size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Pool[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIndex(t *testing.T) {
	i, err := Index(RemMsgSize)
	if err != nil || i != 5 {
		t.Errorf("Index(RemMsgSize) = %d, %v; want 5, nil", i, err)
	}
	if _, err := Index(Name("bogus")); err == nil {
		t.Error("Index(bogus) succeeded")
	}
}

// get returns v's value of the named feature.
func get(v Vector, n Name) float64 {
	i, err := Index(n)
	if err != nil {
		panic(err)
	}
	return v[i]
}

func TestFromProfileCriticalShare(t *testing.T) {
	p := sampleProfile()
	fs := FromProfile(p, ModeCriticalShare)
	// Critical share = 600/1000 = 0.6.
	if got := get(fs[0].Vector, ActVert); got != 60 {
		t.Errorf("ActVert = %v, want 60 (= 100 * 0.6)", got)
	}
	// AvgMsgSize must not be share-scaled.
	if got := get(fs[0].Vector, AvgMsgSize); got != 8 {
		t.Errorf("AvgMsgSize = %v, want 8", got)
	}
}

func TestFromProfileMeanWorker(t *testing.T) {
	fs := FromProfile(sampleProfile(), ModeMeanWorker)
	if len(fs) != 1 {
		t.Fatalf("got %d iterations, want 1", len(fs))
	}
	// Graph-level totals (ActVert 100, RemMsg 400, RemMsgSize 3200) over
	// two workers.
	v := fs[0].Vector
	if got := get(v, ActVert); got != 50 {
		t.Errorf("ActVert = %v, want 50 (= 100/2)", got)
	}
	if got := get(v, RemMsg); got != 200 {
		t.Errorf("RemMsg = %v, want 200 (= 400/2)", got)
	}
	if got := get(v, RemMsgSize); got != 1600 {
		t.Errorf("RemMsgSize = %v, want 1600 (= 3200/2)", got)
	}
	// AvgMsgSize = total bytes / total msgs = 4800/600 = 8, not scaled.
	if got := get(v, AvgMsgSize); got != 8 {
		t.Errorf("AvgMsgSize = %v, want 8", got)
	}
	if fs[0].Seconds != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", fs[0].Seconds)
	}
}

func TestScaleApply(t *testing.T) {
	s := Scale{EV: 10, EE: 20}
	v := Vector{1, 2, 3, 4, 5, 6, 7}
	out := make(Vector, len(v))
	s.ApplyInto(out, v, 1)
	want := Vector{10, 20, 60, 80, 100, 120, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("ApplyInto[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Original untouched.
	if v[0] != 1 {
		t.Error("ApplyInto mutated its input")
	}
}

func TestNewScale(t *testing.T) {
	s, err := NewScale(1000, 100, 50000, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if s.EV != 10 || s.EE != 20 {
		t.Errorf("Scale = %+v, want EV=10 EE=20", s)
	}
	if _, err := NewScale(1000, 0, 50000, 2500); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestRescaleShare(t *testing.T) {
	out := make(Vector, PoolSize)
	Scale{EV: 1, EE: 1}.ApplyInto(out, Vector{1, 1, 1, 1, 1, 1, 9, 1}, 3)
	for i := range out {
		if i == 6 {
			continue
		}
		if out[i] != 3 {
			t.Errorf("ApplyInto(share 3)[%d] = %v, want 3", i, out[i])
		}
	}
	if out[6] != 9 {
		t.Errorf("AvgMsgSize rescaled: %v, want 9", out[6])
	}
}
