package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"viewseeker"
	"viewseeker/internal/dataset"
)

// viewJSON mirrors one entry of the server's "top" array, so a replayed
// session can be rendered to the bytes the server would send.
type viewJSON struct {
	Index int     `json:"index"`
	Spec  string  `json:"spec"`
	Score float64 `json:"score"`
	SQL   string  `json:"sql,omitempty"`
}

// countMatches counts the rows of t satisfying p, reading the float
// columns directly.
func countMatches(t *dataset.Table, p pred) int {
	cols := make([][]float64, len(p.cols))
	for i, c := range p.cols {
		cols[i] = t.Cols[c].Floats
	}
	n := 0
	for r := 0; r < t.NumRows(); r++ {
		ok := true
		for i := range cols {
			if !(cols[i][r] < p.thr[i]) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// replay rebuilds a recorded session directly through the viewseeker
// library — same table version, query and options, the same next/feedback
// sequence — and compares its top-k and weights byte for byte with what
// the server answered.
func replay(table *viewseeker.Table, cv *conv) error {
	sk, err := viewseeker.New(table, cv.query, viewseeker.Options{K: cv.k, Alpha: cv.alpha, Seed: cv.seed})
	if err != nil {
		return fmt.Errorf("replay %s: %w", cv.id, err)
	}
	for i, st := range cv.steps {
		v, err := sk.Next()
		if err != nil {
			return fmt.Errorf("replay %s: next %d: %w", cv.id, i, err)
		}
		if v.Index != st.View {
			return fmt.Errorf("replay %s: iteration %d presented view %d, server presented %d", cv.id, i, v.Index, st.View)
		}
		if err := sk.Feedback(st.View, st.Label); err != nil {
			return fmt.Errorf("replay %s: feedback %d: %w", cv.id, i, err)
		}
	}
	top := []viewJSON{}
	for _, v := range sk.TopK() {
		vj := viewJSON{Index: v.Index, Spec: v.Spec.String(), Score: v.Score}
		if q, err := sk.SQL(v.Index); err == nil {
			vj.SQL = q
		}
		top = append(top, vj)
	}
	want, err := json.Marshal(top)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, cv.top) {
		return fmt.Errorf("replay %s: top-k differs:\n  server %s\n  replay %s", cv.id, cv.top, want)
	}
	if cv.weights == nil {
		return nil
	}
	w, b := sk.Weights()
	want, err = json.Marshal(map[string]any{"features": sk.FeatureNames(), "weights": w, "intercept": b})
	if err != nil {
		return err
	}
	if !bytes.Equal(want, bytes.TrimSpace(cv.weights)) {
		return fmt.Errorf("replay %s: weights differ:\n  server %s\n  replay %s", cv.id, bytes.TrimSpace(cv.weights), want)
	}
	return nil
}
