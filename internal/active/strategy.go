package active

import (
	"fmt"
	"math/rand"
	"sort"
)

// Strategy selects up to m unlabelled view indices to present next.
// rows is the feature matrix of the whole view space; labeled maps view
// index → the user's label for every view already labelled. The built-in
// strategies select as a function of (rows, labeled, configuration) only,
// so a session rebuilt from its labels presents the views it would have.
type Strategy interface {
	Name() string
	Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error)
}

// unlabeledIndices returns the sorted indices not yet labelled.
func unlabeledIndices(n int, labeled map[int]float64) []int {
	out := make([]int, 0, n-len(labeled))
	for i := 0; i < n; i++ {
		if _, ok := labeled[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// topByScore returns up to m indices from candidates with the highest
// scores, ties broken by ascending index for determinism.
func topByScore(candidates []int, score func(i int) float64, m int) []int {
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(candidates))
	for i, c := range candidates {
		ss[i] = scored{c, score(c)}
	}
	sort.SliceStable(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	if m > len(ss) {
		m = len(ss)
	}
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = ss[i].idx
	}
	return out
}

func validateSelect(rows [][]float64, m int) error {
	if len(rows) == 0 {
		return fmt.Errorf("active: empty view space")
	}
	if m <= 0 {
		return fmt.Errorf("active: must request at least one view, got %d", m)
	}
	return nil
}

// selectionRand returns the random source for one selection, seeded from
// the strategy seed and the label count, so repeating a selection or
// replaying its labels draws the same numbers. With no labels it is
// rand.NewSource(seed)'s stream.
func selectionRand(seed int64, labels int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(uint64(labels)*0x9E3779B97F4A7C15)))
}

// samplePerm returns up to m candidates in the order of a random
// permutation drawn from rng.
func samplePerm(candidates []int, rng *rand.Rand, m int) []int {
	if m > len(candidates) {
		m = len(candidates)
	}
	out := make([]int, 0, m)
	for _, p := range rng.Perm(len(candidates))[:m] {
		out = append(out, candidates[p])
	}
	return out
}
