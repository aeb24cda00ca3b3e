package server

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/store"
)

// rawJSON drives a handler and returns the exact response body bytes —
// the bit-identity comparisons below must see the wire bytes, not a
// decoded (and float-rounded) structure.
func rawJSON(t *testing.T, h http.Handler, method, path string, body any) (int, string) {
	t.Helper()
	rec := serveJSON(t, h, context.Background(), method, path, body, nil)
	return rec.Code, rec.Body.String()
}

// TestEvictionRehydrationBitIdentity is the lifecycle acceptance test:
// a server under a 1-byte budget evicts the session's in-RAM state after
// every request and rebuilds it by journal replay on the next touch; its
// responses must be byte-identical to an unbudgeted twin serving the same
// session without ever evicting. GET /next is among the compared routes:
// selection state must survive replay too, including a rebuild taken in
// the middle of the cold-start walk.
func TestEvictionRehydrationBitIdentity(t *testing.T) {
	table := diabTable()
	budgeted := NewWithOptions(Options{SessionBudgetBytes: 1}, table)
	control := New(table)
	bh, ch := budgeted.Handler(), control.Handler()

	create := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 5, "seed": 7}
	var bInfo, cInfo sessionInfo
	if rec := serveJSON(t, bh, context.Background(), "POST", "/api/sessions", create, &bInfo); rec.Code != http.StatusCreated {
		t.Fatalf("budgeted create = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serveJSON(t, ch, context.Background(), "POST", "/api/sessions", create, &cInfo); rec.Code != http.StatusCreated {
		t.Fatalf("control create = %d: %s", rec.Code, rec.Body.String())
	}

	// Before any label, after an eviction: the cold-start walk's first
	// round.
	budgeted.EvictIdleSessions()
	for _, route := range []string{"/next", "/next"} {
		_, b := rawJSON(t, bh, "GET", "/api/sessions/"+bInfo.ID+route, nil)
		_, c := rawJSON(t, ch, "GET", "/api/sessions/"+cInfo.ID+route, nil)
		if b != c {
			t.Fatalf("%s diverged before any label:\n got %s\nwant %s", route, b, c)
		}
	}

	steps := []struct {
		view  int
		label float64
	}{{4, 1}, {11, 0}, {42, 0.5}, {7, 1}, {19, 0}, {3, 0.25}}
	for i, fb := range steps {
		// Force the eviction between steps too: the budget alone already
		// drops the session once the request releases it, but the explicit
		// call makes the test independent of eviction timing.
		budgeted.EvictIdleSessions()
		body := map[string]any{"index": fb.view, "label": fb.label}
		bCode, bBody := rawJSON(t, bh, "POST", "/api/sessions/"+bInfo.ID+"/feedback", body)
		cCode, cBody := rawJSON(t, ch, "POST", "/api/sessions/"+cInfo.ID+"/feedback", body)
		if bCode != http.StatusOK || cCode != http.StatusOK {
			t.Fatalf("step %d: feedback = %d / %d", i, bCode, cCode)
		}
		if bBody != cBody {
			t.Fatalf("step %d: post-eviction feedback diverged:\n got %s\nwant %s", i, bBody, cBody)
		}
		for _, route := range []string{"/next", "/top", "/weights", "/next"} {
			_, b := rawJSON(t, bh, "GET", "/api/sessions/"+bInfo.ID+route, nil)
			_, c := rawJSON(t, ch, "GET", "/api/sessions/"+cInfo.ID+route, nil)
			if b != c {
				t.Fatalf("step %d: %s diverged after rehydration:\n got %s\nwant %s", i, route, b, c)
			}
		}
	}

	snap := budgeted.Metrics().Snapshot()
	if snap["viewseeker_session_evictions_total"] < float64(len(steps)) {
		t.Errorf("evictions = %v, want >= %d", snap["viewseeker_session_evictions_total"], len(steps))
	}
	if snap["viewseeker_session_rehydrations_total"] < float64(len(steps)) {
		t.Errorf("rehydrations = %v, want >= %d", snap["viewseeker_session_rehydrations_total"], len(steps))
	}
}

// TestAdmissionControl429 pins the shedding surface: while the budget is
// exhausted by a session that cannot be evicted (it is serving a
// request), creating a session and touching an evicted one both answer
// 429 with a Retry-After hint, and service recovers once the busy request
// finishes.
func TestAdmissionControl429(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	arm := make(chan struct{}, 1)
	var armed bool
	var mu sync.Mutex
	hook := func(int) {
		mu.Lock()
		a := armed
		mu.Unlock()
		if a {
			once.Do(func() { arm <- struct{}{} })
			<-block
		}
	}
	srv := NewWithOptions(Options{SessionBudgetBytes: 1, RefineHook: hook}, diabTable())
	h := srv.Handler()

	// Two sessions: "busy" will hold the budget hostage mid-feedback;
	// "cold" probes the rehydration shed path. alpha<1 with workers:1
	// routes feedback through the refine hook.
	var busy, cold sessionInfo
	if rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3, "alpha": 0.25, "workers": 1}, &busy); rec.Code != http.StatusCreated {
		t.Fatalf("create busy = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, &cold); rec.Code != http.StatusCreated {
		t.Fatalf("create cold = %d: %s", rec.Code, rec.Body.String())
	}

	mu.Lock()
	armed = true
	mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveJSON(t, h, context.Background(), "POST", "/api/sessions/"+busy.ID+"/feedback",
			map[string]any{"index": 0, "label": 1.0}, nil)
	}()
	<-arm // the feedback handler is now parked inside the session

	rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("create under pressure = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 create carries no Retry-After header")
	}
	rec = serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+cold.ID+"/top", nil, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("rehydration under pressure = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 rehydration carries no Retry-After header")
	}
	var health healthResponse
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.State != "shedding" || health.SessionManager.Shed < 2 {
		t.Errorf("healthz sessionManager = %+v, want shedding with >= 2 shed", health.SessionManager)
	}

	mu.Lock()
	armed = false
	mu.Unlock()
	close(block)
	<-done

	// Recovered: the busy session released, eviction can make room again.
	rec = serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+cold.ID+"/top", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rehydration after recovery = %d: %s", rec.Code, rec.Body.String())
	}
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after recovery = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestLazyRestoreIndexesCold pins the boot-cost fix: RestoreSessions
// indexes journal records without paying any offline phase — every
// restored session is cold until its first touch, which rehydrates it
// with its labels replayed.
func TestLazyRestoreIndexesCold(t *testing.T) {
	recs := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "diab", Query: dataset.DIABQuery, K: 3, Seed: 9},
		{Op: store.OpFeedback, Session: "aaaa", View: 2, Label: 1},
		{Op: store.OpFeedback, Session: "aaaa", View: 5, Label: 0},
		{Op: store.OpCreate, Session: "bbbb", Table: "diab", Query: dataset.DIABQuery, K: 3},
	}
	srv := New(diabTable())
	restored, err := srv.RestoreSessions(recs)
	if err != nil || restored != 2 {
		t.Fatalf("restored %d, err %v", restored, err)
	}
	h := srv.Handler()

	var health healthResponse
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.Cold != 2 || health.SessionManager.Resident != 0 {
		t.Fatalf("after lazy restore: %+v, want 2 cold / 0 resident", health.SessionManager)
	}
	if health.Sessions != 2 {
		t.Fatalf("healthz sessions = %d, want 2", health.Sessions)
	}

	var info sessionInfo
	rec := serveJSON(t, h, context.Background(), "GET", "/api/sessions/aaaa", nil, &info)
	if rec.Code != http.StatusOK || info.NumLabels != 2 {
		t.Fatalf("first touch = %d, labels = %d (want 200 with 2 replayed labels): %s",
			rec.Code, info.NumLabels, rec.Body.String())
	}
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.Cold != 1 || health.SessionManager.Resident != 1 ||
		health.SessionManager.Rehydrations != 1 {
		t.Fatalf("after first touch: %+v, want 1 cold / 1 resident / 1 rehydration", health.SessionManager)
	}
}
