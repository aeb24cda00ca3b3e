package active

// ColdStart acquires the first positive and negative labels: it walks the
// utility features in order, each round of m views presenting the
// unlabelled views ranked highest by the current feature; once every
// feature has had a turn it falls back to seeded random sampling (Section
// 3.2). The round is the label count over m, not a per-call counter, so
// asking again without labelling presents the same views, and a session
// rebuilt from its labels resumes the walk where the original stood.
type ColdStart struct {
	// Seed drives the random fallback.
	Seed int64
}

// Name implements Strategy.
func (c *ColdStart) Name() string { return "coldstart" }

// Select implements Strategy.
func (c *ColdStart) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	if f := len(labeled) / m; f < len(rows[0]) {
		return topByScore(candidates, func(i int) float64 { return rows[i][f] }, m), nil
	}
	// Every feature has been tried: random sampling.
	return samplePerm(candidates, selectionRand(c.Seed, len(labeled)), m), nil
}
