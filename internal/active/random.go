package active

// Random samples unlabelled views uniformly — the baseline query strategy
// that active learning is measured against. Draws are seeded from (Seed,
// labels so far), so repeating a selection repeats its views.
type Random struct {
	Seed int64
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Select implements Strategy.
func (r *Random) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	return samplePerm(candidates, selectionRand(r.Seed, len(labeled)), m), nil
}
