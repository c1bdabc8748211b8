package experiments

import (
	"predict/internal/algorithms"
	"predict/internal/sampling"
)

// FigureConnectedComponents reproduces the extended-version result the
// paper defers for space ("complete results for connected components and
// neighborhood estimation are presented in the extended version", §5):
// iteration prediction for HashMin connected components. CC converges at
// a fixed point, so there is no threshold to transform; iteration counts
// track the sample's effective diameter.
func (l *Lab) FigureConnectedComponents() ([]*Result, error) {
	fig, err := l.iterationErrorSweep(
		"Extended: CC",
		"Predicting iterations for connected components (fixed point)",
		func(int) algorithms.Algorithm { return algorithms.NewConnectedComponents() },
		[]string{"LJ", "Wiki", "UK", "TW"},
		sampling.BiasedRandomJump,
	)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"extended-version experiment: CC has no convergence threshold; sample must preserve effective diameter")
	return []*Result{fig}, nil
}

// FigureNeighborhoodEstimation reproduces the extended-version result for
// FM-sketch neighborhood estimation (τ = 0.001 on the changed-vertex
// ratio; identity transform). Twitter is excluded: it exceeds the memory
// budget, as in the paper.
func (l *Lab) FigureNeighborhoodEstimation() ([]*Result, error) {
	fig, err := l.iterationErrorSweep(
		"Extended: NH",
		"Predicting iterations for neighborhood estimation, tau=0.001",
		func(int) algorithms.Algorithm { return algorithms.NewNeighborhoodEstimation() },
		[]string{"LJ", "Wiki", "UK"},
		sampling.BiasedRandomJump,
	)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"extended-version experiment; no TW (out of memory, as in the paper)")
	return []*Result{fig}, nil
}
