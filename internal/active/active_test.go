package active

import (
	"testing"
)

// twoClusterRows builds feature rows where views 0..4 score high on
// feature 0 and views 5..9 score high on feature 1.
func twoClusterRows() [][]float64 {
	rows := make([][]float64, 10)
	for i := range rows {
		if i < 5 {
			rows[i] = []float64{1 - float64(i)*0.1, 0.1}
		} else {
			rows[i] = []float64{0.1, 1 - float64(i-5)*0.1}
		}
	}
	return rows
}

func TestUnlabeledIndices(t *testing.T) {
	got := unlabeledIndices(5, map[int]float64{1: 0.5, 3: 0.2})
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("unlabeled = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unlabeled = %v, want %v", got, want)
		}
	}
}

func TestTopByScoreTies(t *testing.T) {
	got := topByScore([]int{3, 1, 2}, func(i int) float64 { return 1 }, 2)
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("ties must break by ascending index: %v", got)
	}
}

func TestColdStartWalksFeatures(t *testing.T) {
	rows := twoClusterRows()
	c := &ColdStart{Seed: 1}
	labeled := map[int]float64{}
	// No labels yet: round 0 ranks by feature 0 → view 0.
	got, err := c.Select(rows, labeled, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("first cold-start pick = %d, want 0", got[0])
	}
	labeled[0] = 0.9
	// One label: round 1 ranks by feature 1 → view 5.
	got, _ = c.Select(rows, labeled, 1)
	if got[0] != 5 {
		t.Errorf("second cold-start pick = %d, want 5", got[0])
	}
	labeled[5] = 0.1
	// Two labels: both features walked → random among the rest.
	got, _ = c.Select(rows, labeled, 1)
	if _, already := labeled[got[0]]; already {
		t.Error("random fallback must pick an unlabelled view")
	}
	// The fallback draw is a function of the labels: asking again, or
	// asking a fresh strategy with the same seed, presents the same view.
	again, _ := c.Select(rows, labeled, 1)
	fresh, _ := (&ColdStart{Seed: 1}).Select(rows, labeled, 1)
	if again[0] != got[0] || fresh[0] != got[0] {
		t.Errorf("fallback picks %d, %d, %d for the same labels", got[0], again[0], fresh[0])
	}
}

// TestColdStartRoundsOfM: with m views per round the walk advances one
// feature per m labels, so a round whose views are all labelled moves on
// and a repeated ask inside a round re-presents the same views.
func TestColdStartRoundsOfM(t *testing.T) {
	rows := twoClusterRows()
	c := &ColdStart{}
	first, _ := c.Select(rows, map[int]float64{}, 2)
	if first[0] != 0 || first[1] != 1 {
		t.Fatalf("round 0 = %v, want [0 1]", first)
	}
	if again, _ := c.Select(rows, map[int]float64{}, 2); again[0] != 0 || again[1] != 1 {
		t.Fatalf("repeated round 0 = %v, want [0 1]", again)
	}
	second, _ := c.Select(rows, map[int]float64{0: 1, 1: 1}, 2)
	if second[0] != 5 || second[1] != 6 {
		t.Fatalf("round 1 = %v, want [5 6]", second)
	}
}

func TestColdStartSkipsLabeled(t *testing.T) {
	rows := twoClusterRows()
	c := &ColdStart{}
	// One label puts the walk on feature 1, whose top view is already
	// labelled: the pick is the next-best unlabelled view by feature 1.
	labeled := map[int]float64{5: 0.9}
	got, err := c.Select(rows, labeled, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Errorf("should pick next-best by feature 1: got %d, want 6", got[0])
	}
}

func TestUncertaintySelectsBoundary(t *testing.T) {
	// Views along a line; labels known at the ends. Uncertainty must pick
	// near the middle, not the ends.
	rows := make([][]float64, 11)
	for i := range rows {
		rows[i] = []float64{float64(i) / 10}
	}
	labeled := map[int]float64{0: 0, 1: 0, 9: 1, 10: 1}
	u := &Uncertainty{}
	got, err := u.Select(rows, labeled, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 3 || got[0] > 7 {
		t.Errorf("uncertainty picked %d, want a middle view", got[0])
	}
	if u.Model() == nil || !u.Model().Fitted() {
		t.Error("model should be trained and exposed")
	}
}

func TestUncertaintyNoLabelsActsUniform(t *testing.T) {
	rows := twoClusterRows()
	u := &Uncertainty{}
	got, err := u.Select(rows, map[int]float64{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("selected %d views", len(got))
	}
	// Untrained model: all uncertainties equal → deterministic index order.
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("untrained selection = %v", got)
	}
}

func TestUncertaintyAllLabeled(t *testing.T) {
	rows := [][]float64{{1}, {2}}
	labeled := map[int]float64{0: 1, 1: 0}
	u := &Uncertainty{}
	got, err := u.Select(rows, labeled, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("nothing to select, got %v", got)
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	rows := twoClusterRows()
	a := &Random{Seed: 7}
	b := &Random{Seed: 7}
	ga, _ := a.Select(rows, map[int]float64{}, 4)
	gb, _ := b.Select(rows, map[int]float64{}, 4)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("same seed must select identically")
		}
	}
	// Repeating a selection repeats its draw.
	if again, _ := a.Select(rows, map[int]float64{}, 4); again[0] != ga[0] || again[3] != ga[3] {
		t.Fatalf("repeated selection %v differs from %v", again, ga)
	}
	// Never returns labelled views.
	labeled := map[int]float64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
	got, _ := a.Select(rows, labeled, 10)
	if len(got) != 5 {
		t.Fatalf("selected %d, want the 5 unlabelled", len(got))
	}
	for _, g := range got {
		if g < 5 {
			t.Errorf("selected labelled view %d", g)
		}
	}
}

func TestCommitteeSelectsDisagreement(t *testing.T) {
	rows := make([][]float64, 21)
	for i := range rows {
		rows[i] = []float64{float64(i-10) / 10}
	}
	labeled := map[int]float64{0: 0, 1: 0, 2: 0, 18: 1, 19: 1, 20: 1}
	c := &Committee{Seed: 3}
	got, err := c.Select(rows, labeled, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The committee should disagree near the middle of the gap.
	if got[0] < 5 || got[0] > 15 {
		t.Errorf("committee picked %d, want middle region", got[0])
	}
}

func TestStrategyValidation(t *testing.T) {
	for _, s := range []Strategy{&Uncertainty{}, &ColdStart{}, &Random{}, &Committee{}} {
		if _, err := s.Select(nil, nil, 1); err == nil {
			t.Errorf("%s: empty rows should fail", s.Name())
		}
		if _, err := s.Select([][]float64{{1}}, nil, 0); err == nil {
			t.Errorf("%s: m=0 should fail", s.Name())
		}
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]Strategy{
		"uncertainty": &Uncertainty{},
		"coldstart":   &ColdStart{},
		"random":      &Random{},
		"committee":   &Committee{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestDensityWeightedPrefersDenseRegions(t *testing.T) {
	// A tight cluster plus one extreme outlier, all equally uncertain (no
	// labels yet → untrained model, uncertainty 0.5 everywhere): the
	// density term must steer selection into the cluster, away from the
	// outlier that plain uncertainty sampling could waste a label on.
	rows := [][]float64{
		{0.00, 0}, {0.01, 0}, {0.02, 0}, {0.03, 0}, {0.04, 0},
		{50, 50}, // outlier
	}
	d := &DensityWeighted{}
	got, err := d.Select(rows, map[int]float64{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 5 {
		t.Errorf("density weighting picked the outlier")
	}
}

func TestDensityWeightedBasics(t *testing.T) {
	rows := twoClusterRows()
	d := &DensityWeighted{Beta: 2}
	if d.Name() != "density" {
		t.Errorf("name = %q", d.Name())
	}
	labeled := map[int]float64{0: 0.9, 5: 0.1}
	got, err := d.Select(rows, labeled, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("selected %d", len(got))
	}
	for _, v := range got {
		if _, already := labeled[v]; already {
			t.Errorf("selected labelled view %d", v)
		}
	}
	// Repeated selection over the same rows.
	if _, err := d.Select(rows, labeled, 1); err != nil {
		t.Fatal(err)
	}
	// Validation shared with the other strategies.
	if _, err := d.Select(nil, nil, 1); err == nil {
		t.Error("empty rows should fail")
	}
}
