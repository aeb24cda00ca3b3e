package active

import (
	"sort"

	"viewseeker/internal/ml"
)

// Uncertainty implements least-confidence uncertainty sampling (Eq. 6–7):
// it trains a logistic-regression uncertainty estimator on the labels seen
// so far (binarised at Threshold) and presents the views whose predicted
// class probability is closest to 0.5. Each selection fits a fresh
// estimator, so it depends only on its arguments.
type Uncertainty struct {
	// Threshold binarises the 0–1 interest labels into the positive /
	// negative classes the uncertainty estimator trains on (default 0.5).
	Threshold float64
	lastModel *ml.LogisticRegression
}

// Name implements Strategy.
func (u *Uncertainty) Name() string { return "uncertainty" }

// Model returns the most recently trained uncertainty estimator (nil
// before the first selection).
func (u *Uncertainty) Model() *ml.LogisticRegression { return u.lastModel }

// Select implements Strategy.
func (u *Uncertainty) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	threshold := u.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	// Train in sorted index order: ranging over the map feeds the logistic
	// fit in random order, and its gradient descent is order-sensitive, so
	// identical seeds could select different views run-to-run.
	trainIdx := make([]int, 0, len(labeled))
	for i := range labeled {
		trainIdx = append(trainIdx, i)
	}
	sort.Ints(trainIdx)
	var x [][]float64
	var y []float64
	for _, i := range trainIdx {
		x = append(x, rows[i])
		if labeled[i] >= threshold {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	model := ml.NewLogisticRegression()
	if len(x) > 0 {
		// Standardise against the whole view space: the model scores every
		// unlabelled view, and labelled-only statistics make near-constant
		// features explode off-sample (see ml.LinearRegression.ExternalScaler).
		scaler, err := ml.FitScaler(rows)
		if err != nil {
			return nil, err
		}
		model.ExternalScaler = scaler
		if err := model.Fit(x, y); err != nil {
			return nil, err
		}
	}
	u.lastModel = model
	return topByScore(candidates, func(i int) float64 { return model.Uncertainty(rows[i]) }, m), nil
}
