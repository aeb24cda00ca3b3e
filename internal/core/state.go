package core

import "fmt"

// SessionState is the serialisable record of an interactive session: the
// labelling history in order. It is sufficient to reconstruct the session
// — estimators are deterministic functions of the labelled set, so Restore
// simply replays the feedback.
type SessionState struct {
	Version int       `json:"version"`
	Views   []int     `json:"views"`
	Labels  []float64 `json:"labels"`
}

// stateVersion is the current SessionState schema version.
const stateVersion = 1

// State snapshots the session.
func (s *Seeker) State() SessionState {
	views, labels := s.Labels()
	return SessionState{Version: stateVersion, Views: views, Labels: labels}
}

// Restore replays a snapshot into the session. It requires a fresh
// session (no labels yet) over a view space at least as large as the one
// the snapshot was taken from. Estimators, recommendations and the next
// views come back identical: selection is a function of the labels, so a
// session restored mid-cold-start resumes the walk where it stood.
func (s *Seeker) Restore(st SessionState) error {
	if st.Version != stateVersion {
		return fmt.Errorf("core: session state version %d, want %d", st.Version, stateVersion)
	}
	if len(st.Views) != len(st.Labels) {
		return fmt.Errorf("core: state has %d views but %d labels", len(st.Views), len(st.Labels))
	}
	if s.NumLabels() != 0 {
		return fmt.Errorf("core: restore requires a fresh session, this one has %d labels", s.NumLabels())
	}
	for i, v := range st.Views {
		if err := s.Feedback(v, st.Labels[i]); err != nil {
			return fmt.Errorf("core: replaying label %d: %w", i, err)
		}
	}
	return nil
}
