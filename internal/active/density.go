package active

import (
	"math"

	"viewseeker/internal/ml"
)

// DensityWeighted implements information-density sampling (Settles &
// Craven, 2008): plain uncertainty sampling chases outliers — views that
// are hard to classify because nothing resembles them — whereas labelling
// a view from a dense region of feature space informs the model about all
// its neighbours. The selection score is
//
//	uncertainty(x) · density(x)^Beta
//
// where density is the mean similarity of x to the rest of the space.
type DensityWeighted struct {
	// Threshold binarises labels (default 0.5).
	Threshold float64
	// Beta trades informativeness against representativeness (default 1).
	Beta float64
}

// Name implements Strategy.
func (d *DensityWeighted) Name() string { return "density" }

// Select implements Strategy.
func (d *DensityWeighted) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	beta := d.Beta
	if beta <= 0 {
		beta = 1
	}
	densities := densitiesOf(rows)

	model := ml.NewLogisticRegression()
	var x [][]float64
	var y []float64
	for i := 0; i < len(rows); i++ {
		if label, ok := labeled[i]; ok {
			x = append(x, rows[i])
			if label >= threshold {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	if len(x) > 0 {
		scaler, err := ml.FitScaler(rows)
		if err != nil {
			return nil, err
		}
		model.ExternalScaler = scaler
		if err := model.Fit(x, y); err != nil {
			return nil, err
		}
	}
	score := func(i int) float64 {
		return model.Uncertainty(rows[i]) * math.Pow(densities[i], beta)
	}
	return topByScore(candidates, score, m), nil
}

// densitiesOf computes each row's mean similarity to every other row, over
// standardised features. It is recomputed per selection rather than
// cached: refinement rewrites rows in place, and a cache would make the
// selection depend on when it was first filled.
func densitiesOf(rows [][]float64) []float64 {
	n := len(rows)
	densities := make([]float64, n)
	scaler, err := ml.FitScaler(rows)
	if err != nil || n == 1 {
		for i := range densities {
			densities[i] = 1
		}
		return densities
	}
	std := scaler.TransformAll(rows)
	for i := 0; i < n; i++ {
		total := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dist := 0.0
			for t := range std[i] {
				diff := std[i][t] - std[j][t]
				dist += diff * diff
			}
			total += 1 / (1 + math.Sqrt(dist))
		}
		densities[i] = total / float64(n-1)
	}
	return densities
}
