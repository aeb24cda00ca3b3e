package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/retry"
	"viewseeker/internal/store"
)

// serveJSON drives a handler directly (no network) so the test controls
// r.Context() exactly: cancelling ctx is the deterministic stand-in for a
// client disconnect or an http.TimeoutHandler deadline.
func serveJSON(t *testing.T, h http.Handler, ctx context.Context, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// TestCancelFeedbackStopsRefinerPromptly pins the tentpole's end-to-end
// promise: cancelling a /feedback request's context halts the in-flight
// incremental refinement within one feature row, while the label itself
// still lands (refinement is optional latency-hiding work) and the session
// stays fully usable.
func TestCancelFeedbackStopsRefinerPromptly(t *testing.T) {
	var rows atomic.Int32
	var armed atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := NewWithOptions(Options{RefineHook: func(int) {
		if armed.Load() && rows.Add(1) == 1 {
			cancel()
		}
	}}, diabTable())
	h := srv.Handler()

	var info sessionInfo
	rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3, "alpha": 0.25, "workers": 1}, &info)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}

	armed.Store(true)
	var top topResponse
	rec = serveJSON(t, h, ctx, "POST", "/api/sessions/"+info.ID+"/feedback",
		map[string]any{"index": 0, "label": 1.0}, &top)
	armed.Store(false)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancelled feedback = %d, want 200 (label must land): %s", rec.Code, rec.Body.String())
	}
	if top.NumLabels != 1 {
		t.Fatalf("numLabels = %d after cancelled feedback, want 1", top.NumLabels)
	}
	// Workers=1 refinement checks the context before every row: the row
	// whose hook cancelled is the last one refreshed.
	if got := rows.Load(); got != 1 {
		t.Errorf("refiner refreshed %d rows after cancellation, want 1", got)
	}

	// The session survives: the next feedback under a live context refines
	// freely and the API keeps answering.
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions/"+info.ID+"/feedback",
		map[string]any{"index": 1, "label": 0.0}, &top)
	if rec.Code != http.StatusOK || top.NumLabels != 2 {
		t.Fatalf("follow-up feedback = %d, labels = %d: %s", rec.Code, top.NumLabels, rec.Body.String())
	}
	rec = serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+info.ID+"/top", nil, &top)
	if rec.Code != http.StatusOK {
		t.Fatalf("top after cancel = %d", rec.Code)
	}
}

// TestCancelPreCancelledRequestsGet503 pins the other half of the feedback
// contract: a context already dead on entry records nothing and maps to
// 503, and session creation under a dead context never registers a session.
func TestCancelPreCancelledRequestsGet503(t *testing.T) {
	srv := New(diabTable())
	h := srv.Handler()
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	rec := serveJSON(t, h, dead, "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-cancelled create = %d, want 503: %s", rec.Code, rec.Body.String())
	}

	var info sessionInfo
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3, "alpha": 0.25}, &info)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	rec = serveJSON(t, h, dead, "POST", "/api/sessions/"+info.ID+"/feedback",
		map[string]any{"index": 0, "label": 1.0}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-cancelled feedback = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var top topResponse
	serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+info.ID+"/top", nil, &top)
	if top.NumLabels != 0 {
		t.Fatalf("pre-cancelled feedback recorded a label: numLabels = %d", top.NumLabels)
	}
}

// TestDegradeJournalENOSPCKeepsServing drives the full degraded-mode
// journey: with the journal's disk persistently out of space, every user
// request still succeeds, responses and /healthz report degraded, and the
// flag clears by itself once the fault lifts.
func TestDegradeJournalENOSPCKeepsServing(t *testing.T) {
	faulty := faultfs.NewFaulty(nil)
	journal, err := store.OpenJournalFS(faulty, filepath.Join(t.TempDir(), "journal.wal"),
		retry.Policy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	srv := NewWithOptions(Options{Journal: journal}, diabTable())
	h := srv.Handler()

	faulty.FailWrites(syscall.ENOSPC)

	var info sessionInfo
	rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, &info)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create under ENOSPC = %d, want 201: %s", rec.Code, rec.Body.String())
	}
	if !info.Degraded {
		t.Error("create response does not report degraded=true")
	}

	var top topResponse
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions/"+info.ID+"/feedback",
		map[string]any{"index": 0, "label": 1.0}, &top)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback under ENOSPC = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if !top.Degraded || top.NumLabels != 1 {
		t.Fatalf("feedback response = %+v, want degraded=true numLabels=1", top)
	}

	var health healthResponse
	rec = serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d (degraded must stay 200)", rec.Code)
	}
	if health.Status != "degraded" || !health.Journal.Degraded || !health.Journal.Enabled {
		t.Fatalf("healthz = %+v, want degraded journal", health)
	}

	// The fault lifts: the next successful append clears the flag without
	// any operator intervention.
	faulty.Clear()
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions/"+info.ID+"/feedback",
		map[string]any{"index": 1, "label": 0.0}, &top)
	if rec.Code != http.StatusOK || top.Degraded {
		t.Fatalf("feedback after recovery = %d degraded=%v, want 200 and false", rec.Code, top.Degraded)
	}
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.Status != "ok" || health.Journal.Degraded {
		t.Fatalf("healthz after recovery = %+v, want ok", health)
	}
}

// TestFaultPanickingHandlerGets500 pins the recovery middleware: a handler
// bug takes down one request with a 500, not the process.
func TestFaultPanickingHandlerGets500(t *testing.T) {
	h := New().recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	// http.ErrAbortHandler must keep its meaning and propagate.
	aborts := New().recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler was swallowed by the recovery middleware")
		}
	}()
	aborts.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	t.Error("unreachable: ErrAbortHandler should have propagated")
}
