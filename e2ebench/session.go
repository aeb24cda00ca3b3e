package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// pred is a conjunction of `column < threshold` terms over float columns:
// the shape of every exploration query the benchmark generates, so the
// benchmark can count matching rows itself without the SQL layer.
type pred struct {
	cols []int
	thr  []float64
}

// round6 rounds a threshold to the six decimals the query text carries, so
// the benchmark's own row counts use exactly the constant the server parses.
func round6(t float64) float64 {
	v, err := strconv.ParseFloat(strconv.FormatFloat(t, 'f', 6, 64), 64)
	if err != nil {
		panic(err) // formatting a finite float always parses back
	}
	return v
}

// sql renders the predicate as the exploration query over table.
func (p pred) sql(table string, names []string) string {
	terms := make([]string, len(p.cols))
	for i, c := range p.cols {
		terms[i] = fmt.Sprintf("%s < %.6f", names[c], p.thr[i])
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s", table, strings.Join(terms, " AND "))
}

// match reports whether a row (float cells in schema order) satisfies p.
func (p pred) match(row []float64) bool {
	for i, c := range p.cols {
		if !(row[c] < p.thr[i]) {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finaliser: the benchmark's stateless hash for
// deriving per-session seeds and labels from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// label is the simulated analyst: a fixed interest label in {0, ¼, ½, ¾, 1}
// for each (session, view) pair.
func label(sessionSeed int64, view int) float64 {
	return float64(mix64(uint64(sessionSeed)^uint64(view)*0x2545f4914f6cdd1d)%5) / 4
}

// feedbackStep is one recorded label.
type feedbackStep struct {
	View  int     `json:"index"`
	Label float64 `json:"label"`
}

// conv is one session's recorded conversation: what was asked, what the
// server answered, and what the output checks compare.
type conv struct {
	id         string
	query      string
	pred       pred
	k          int
	alpha      float64
	seed       int64
	targetRows int
	group      int // which of the workload's fixed queries the session runs
	steps      []feedbackStep
	top        json.RawMessage // "top" of the last top/feedback reply
	weights    []byte          // GET weights reply, sampled sessions only
	sampled    bool
	revisited  bool
}

// runner drives session scripts against one server and records what it
// measures. The step methods return false when the step failed; the
// caller abandons the session then.
type runner struct {
	c        *client
	rec      *recorder
	deadline time.Time

	sampleMu   sync.Mutex
	lastSample time.Time
	perSession []float64 // accounted bytes per resident session, from /metricz
}

// step is the client-side accounting of one user-visible step, which may
// span several requests.
type step struct {
	rtt, handler time.Duration
	bytes        int
}

func (s *step) add(rp reply) {
	s.rtt += rp.rtt
	s.handler += rp.handler
	s.bytes += len(rp.body)
}

// finish records a completed step's latency under kind (when non-empty)
// and its server/wire split for the traced run. A step bound by the
// interactive budget fails when it exceeds it.
func (r *runner) finish(kind string, st step, bounded bool) error {
	ms := float64(st.rtt) / 1e6
	if kind != "" {
		r.rec.add(kind, ms)
		if r.c.timer != nil {
			r.rec.add("server.handler_ms."+kind, float64(st.handler)/1e6)
			r.rec.add("server.wire_ms."+kind, float64(st.rtt-st.handler)/1e6)
			r.rec.add("server.response_bytes."+kind, float64(st.bytes))
		}
	}
	if bounded && st.rtt > interactiveLimit {
		return fmt.Errorf("%s step took %.1f ms, over the %v budget", kind, ms, interactiveLimit)
	}
	return nil
}

// createReq is the POST /api/sessions body.
type createReq struct {
	Table string  `json:"table"`
	Query string  `json:"query"`
	K     int     `json:"k"`
	Alpha float64 `json:"alpha,omitempty"`
	Seed  int64   `json:"seed"`
}

func (r *runner) create(table string, cv *conv) bool {
	var info struct {
		ID         string `json:"id"`
		TargetRows int    `json:"targetRows"`
	}
	rp, err := r.c.doJSON("POST", "/api/sessions",
		createReq{Table: table, Query: cv.query, K: cv.k, Alpha: cv.alpha, Seed: cv.seed}, &info)
	if err == nil {
		var st step
		st.add(rp)
		err = r.finish("create", st, false)
		cv.id, cv.targetRows = info.ID, info.TargetRows
	}
	r.rec.attempt(err)
	if err == nil {
		r.sampleSessionBytes()
	}
	return err == nil
}

// iterate runs one labelling iteration: GET next, then POST feedback with
// the simulated analyst's label. kind names the latency sample ("feedback",
// or "" when the caller records the step itself); the first request's
// round trip is returned for the revisit metric.
func (r *runner) iterate(cv *conv, kind string) (first time.Duration, ok bool) {
	var st step
	var next struct {
		Done  bool `json:"done"`
		Index int  `json:"index"`
	}
	rp, err := r.c.doJSON("GET", "/api/sessions/"+cv.id+"/next", nil, &next)
	st.add(rp)
	first = rp.rtt
	if err == nil && next.Done {
		err = errors.New("view space exhausted")
	}
	if err == nil {
		fb := feedbackStep{View: next.Index, Label: label(cv.seed, next.Index)}
		var body struct {
			Top json.RawMessage `json:"top"`
		}
		rp, err = r.c.doJSON("POST", "/api/sessions/"+cv.id+"/feedback", fb, &body)
		st.add(rp)
		if err == nil {
			cv.steps = append(cv.steps, fb)
			cv.top = body.Top
			err = r.finish(kind, st, true)
		}
	}
	r.rec.attempt(err)
	return first, err == nil
}

func (r *runner) top(cv *conv) bool {
	var body struct {
		Top json.RawMessage `json:"top"`
	}
	rp, err := r.c.doJSON("GET", "/api/sessions/"+cv.id+"/top", nil, &body)
	if err == nil {
		cv.top = body.Top
		var st step
		st.add(rp)
		err = r.finish("top", st, true)
	}
	r.rec.attempt(err)
	return err == nil
}

// weights fetches the learned weights of a sampled session for the replay
// check; it is not a timed step.
func (r *runner) weights(cv *conv) bool {
	rp, err := r.c.do("GET", "/api/sessions/"+cv.id+"/weights", nil)
	if err == nil {
		cv.weights = rp.body
	}
	r.rec.attempt(err)
	return err == nil
}

func (r *runner) remove(cv *conv) bool {
	_, err := r.c.do("DELETE", "/api/sessions/"+cv.id, nil)
	r.rec.attempt(err)
	return err == nil
}

// sampleSessionBytes reads the accounted resident bytes per resident
// session from /metricz, at most every 200 ms so the probe stays a small
// share of the load.
func (r *runner) sampleSessionBytes() {
	r.sampleMu.Lock()
	due := time.Since(r.lastSample) >= 200*time.Millisecond
	if due {
		r.lastSample = time.Now()
	}
	r.sampleMu.Unlock()
	if !due {
		return
	}
	m, err := r.c.metricz()
	r.rec.attempt(err)
	if err != nil {
		return
	}
	if n := m["viewseeker_session_resident"]; n > 0 {
		r.sampleMu.Lock()
		r.perSession = append(r.perSession, m["viewseeker_session_resident_bytes"]/n)
		r.sampleMu.Unlock()
	}
}
