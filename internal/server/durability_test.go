package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/store"
)

func diabTable() *dataset.Table {
	return dataset.GenerateDIAB(dataset.DIABConfig{Rows: 2000, Seed: 51})
}

func TestSessionIDsAreRandomHex(t *testing.T) {
	ts := testServer(t)
	idPattern := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		var info sessionInfo
		doJSON(t, "POST", ts.URL+"/api/sessions",
			map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3},
			http.StatusCreated, &info)
		if !idPattern.MatchString(info.ID) {
			t.Fatalf("session id %q is not 16 hex chars", info.ID)
		}
		if seen[info.ID] {
			t.Fatalf("duplicate session id %q", info.ID)
		}
		seen[info.ID] = true
	}
}

func TestSecondSessionIsServedFromCache(t *testing.T) {
	ts := testServer(t)
	body := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}
	var first, second sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions", body, http.StatusCreated, &first)
	if first.Cached {
		t.Fatal("first session reported cached=true")
	}
	doJSON(t, "POST", ts.URL+"/api/sessions", body, http.StatusCreated, &second)
	if !second.Cached {
		t.Fatal("second identical session reported cached=false")
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	srv := NewWithOptions(Options{MaxBodyBytes: 256}, diabTable())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := bytes.Repeat([]byte("x"), 1024)
	body := []byte(`{"table":"diab","query":"` + string(big) + `"}`)
	res, err := http.Post(ts.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", res.StatusCode)
	}
	// A within-limit body on the same server still works.
	var info sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3},
		http.StatusCreated, &info)
}

// TestJournalRestoreReconstructsSession is the acceptance scenario: a
// server is killed mid-session (simulated by just abandoning it) and a new
// process replays the journal — the restored session must answer with the
// identical top-k and weights, and keep accepting feedback.
func TestJournalRestoreReconstructsSession(t *testing.T) {
	dir := t.TempDir()
	table := diabTable()
	journalPath := filepath.Join(dir, "journal.wal")
	journal, err := store.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewWithOptions(Options{Cache: cache, Journal: journal}, table)
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	var info sessionInfo
	doJSON(t, "POST", ts1.URL+"/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 5, "seed": 7},
		http.StatusCreated, &info)
	// Drive a few deterministic labels through the live server.
	for i := 0; i < 6; i++ {
		var next struct {
			Done  bool `json:"done"`
			Index int  `json:"index"`
		}
		doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/next", nil, http.StatusOK, &next)
		if next.Done {
			break
		}
		label := 0.0
		if next.Index%2 == 0 {
			label = 1.0
		}
		doJSON(t, "POST", ts1.URL+"/api/sessions/"+info.ID+"/feedback",
			map[string]any{"index": next.Index, "label": label}, http.StatusOK, nil)
	}
	var topBefore topResponse
	doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/top", nil, http.StatusOK, &topBefore)
	var weightsBefore map[string]any
	doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/weights", nil, http.StatusOK, &weightsBefore)

	// "Kill" the server without any clean shutdown: the journal's appends
	// are already in the file, so a new process opening it sees them.
	recs := recoveredRecords(t, journalPath)
	cache2, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewWithOptions(Options{Cache: cache2}, table)
	restored, err := srv2.RestoreSessions(recs)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var infoAfter sessionInfo
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID, nil, http.StatusOK, &infoAfter)
	if infoAfter.NumLabels != 6 {
		t.Fatalf("restored session has %d labels, want 6", infoAfter.NumLabels)
	}
	if !infoAfter.Cached {
		t.Error("restored session did not reuse the disk-backed offline cache")
	}
	var topAfter topResponse
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/top", nil, http.StatusOK, &topAfter)
	if len(topAfter.Top) != len(topBefore.Top) {
		t.Fatalf("top-k sizes %d vs %d", len(topAfter.Top), len(topBefore.Top))
	}
	for i := range topBefore.Top {
		if topBefore.Top[i].Index != topAfter.Top[i].Index || topBefore.Top[i].Score != topAfter.Top[i].Score {
			t.Fatalf("top-k[%d] differs after restore: %+v vs %+v", i, topBefore.Top[i], topAfter.Top[i])
		}
	}
	var weightsAfter map[string]any
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/weights", nil, http.StatusOK, &weightsAfter)
	beforeW := weightsBefore["weights"].(map[string]any)
	afterW := weightsAfter["weights"].(map[string]any)
	for name, v := range beforeW {
		if afterW[name] != v {
			t.Fatalf("weight %s differs after restore: %v vs %v", name, v, afterW[name])
		}
	}
	// The restored session stays interactive.
	var next struct {
		Done  bool `json:"done"`
		Index int  `json:"index"`
	}
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/next", nil, http.StatusOK, &next)
	if !next.Done {
		doJSON(t, "POST", ts2.URL+"/api/sessions/"+info.ID+"/feedback",
			map[string]any{"index": next.Index, "label": 1.0}, http.StatusOK, nil)
	}
}

func TestRestoreSkipsDeletedSessions(t *testing.T) {
	dir := t.TempDir()
	table := diabTable()
	journalPath := filepath.Join(dir, "journal.wal")
	journal, err := store.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewWithOptions(Options{Journal: journal}, table)
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	body := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}
	var kept, dropped sessionInfo
	doJSON(t, "POST", ts1.URL+"/api/sessions", body, http.StatusCreated, &kept)
	doJSON(t, "POST", ts1.URL+"/api/sessions", body, http.StatusCreated, &dropped)
	doJSON(t, "DELETE", ts1.URL+"/api/sessions/"+dropped.ID, nil, http.StatusNoContent, nil)

	recs := recoveredRecords(t, journalPath)
	srv2 := New(table)
	restored, err := srv2.RestoreSessions(recs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+kept.ID, nil, http.StatusOK, nil)
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+dropped.ID, nil, http.StatusNotFound, nil)
}

func TestRestoreSurvivesUnknownTable(t *testing.T) {
	recs := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "missing", Query: "SELECT * FROM missing"},
		{Op: store.OpCreate, Session: "bbbb", Table: "diab", Query: dataset.DIABQuery, K: 3},
	}
	srv := New(diabTable())
	restored, err := srv.RestoreSessions(recs)
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	if err == nil {
		t.Fatal("missing-table session restored without error")
	}
}

// recoveredRecords opens the journal at path the way a restarting server
// does and returns the records it recovered.
func recoveredRecords(t *testing.T, path string) []store.Record {
	t.Helper()
	j, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Recovered()
}

// TestJournalImportRestoresSessions boots from a journal in the JSON-lines
// format earlier releases wrote: it imports once into the WAL journal, and
// the restored sessions answer /top and /weights byte-identically to a
// twin restored by replaying the same records directly.
func TestJournalImportRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	table := diabTable()
	q, err := json.Marshal(dataset.DIABQuery)
	if err != nil {
		t.Fatal(err)
	}
	fixture := `{"op":"create","session":"aaaa","table":"diab","query":` + string(q) + `,"k":5,"seed":7,"view":0,"label":0}
{"op":"create","session":"bbbb","table":"diab","query":` + string(q) + `,"k":3,"alpha":0.25,"strategy":"committee","seed":2,"workers":1,"view":0,"label":0}
{"op":"feedback","session":"aaaa","view":4,"label":1}
{"op":"feedback","session":"bbbb","view":0,"label":0.75}
{"op":"feedback","session":"aaaa","view":11,"label":0}
{"op":"create","session":"cccc","table":"diab","query":` + string(q) + `,"k":3,"view":0,"label":0}
{"op":"feedback","session":"aaaa","view":42,"label":0.5}
{"op":"delete","session":"cccc","view":0,"label":0}
{"op":"feedback","session":"bbbb","view":9,"label":0.25}
`
	direct := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "diab", Query: dataset.DIABQuery, K: 5, Seed: 7},
		{Op: store.OpCreate, Session: "bbbb", Table: "diab", Query: dataset.DIABQuery, K: 3, Alpha: 0.25, Strategy: "committee", Seed: 2, Workers: 1},
		{Op: store.OpFeedback, Session: "aaaa", View: 4, Label: 1},
		{Op: store.OpFeedback, Session: "bbbb", View: 0, Label: 0.75},
		{Op: store.OpFeedback, Session: "aaaa", View: 11, Label: 0},
		{Op: store.OpCreate, Session: "cccc", Table: "diab", Query: dataset.DIABQuery, K: 3},
		{Op: store.OpFeedback, Session: "aaaa", View: 42, Label: 0.5},
		{Op: store.OpDelete, Session: "cccc"},
		{Op: store.OpFeedback, Session: "bbbb", View: 9, Label: 0.25},
	}
	legacy := filepath.Join(dir, "journal.jsonl")
	path := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(legacy, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := store.ImportJSONL(legacy, path); err != nil || n != len(direct) || skipped != 0 {
		t.Fatalf("import = %d records, %d skipped, %v", n, skipped, err)
	}
	if n, _, err := store.ImportJSONL(legacy, path); err != nil || n != 0 {
		t.Fatalf("second import = %d records, %v; want a no-op once the legacy file is retired", n, err)
	}
	journal, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	imported := NewWithOptions(Options{Journal: journal}, table)
	if n, err := imported.RestoreSessions(journal.Recovered()); err != nil || n != 2 {
		t.Fatalf("restored %d sessions from the import, %v; want 2", n, err)
	}
	twin := New(table)
	if n, err := twin.RestoreSessions(direct); err != nil || n != 2 {
		t.Fatalf("twin restored %d sessions, %v", n, err)
	}
	ih, th := imported.Handler(), twin.Handler()
	for _, id := range []string{"aaaa", "bbbb"} {
		for _, route := range []string{"/top", "/weights"} {
			ic, ib := rawJSON(t, ih, "GET", "/api/sessions/"+id+route, nil)
			tc, tb := rawJSON(t, th, "GET", "/api/sessions/"+id+route, nil)
			if ic != http.StatusOK || tc != http.StatusOK || ib != tb {
				t.Fatalf("%s%s: imported %d %s, twin %d %s", id, route, ic, ib, tc, tb)
			}
		}
	}
	if code, _ := rawJSON(t, ih, "GET", "/api/sessions/cccc", nil); code != http.StatusNotFound {
		t.Errorf("deleted session cccc = %d after import, want 404", code)
	}
}

// TestTornJournalSurfacesAtBoot: a journal whose tail was damaged is
// truncated to its committed prefix on open, and the truncation shows on
// /healthz and /metricz.
func TestTornJournalSurfacesAtBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "diab", Query: dataset.DIABQuery, K: 3},
		{Op: store.OpFeedback, Session: "aaaa", View: 2, Label: 1},
		{Op: store.OpFeedback, Session: "aaaa", View: 5, Label: 0},
	}
	for i, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the last byte of the second frame: the second and third
	// records go, the create survives.
	st := recoveredRecords(t, path)
	if len(st) != 3 {
		t.Fatalf("clean journal recovered %d records", len(st))
	}
	firstEnd := frameEnd(t, raw, 0)
	secondEnd := frameEnd(t, raw, firstEnd)
	raw[secondEnd-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	journal, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	srv := NewWithOptions(Options{Journal: journal}, diabTable())
	if n, err := srv.RestoreSessions(journal.Recovered()); err != nil || n != 1 {
		t.Fatalf("restored %d, %v", n, err)
	}
	h := srv.Handler()
	var health healthResponse
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	want := journalHealth{healthComponent{Enabled: true},
		store.JournalRecovery{Records: 1, TornTail: true, TornBytes: int64(len(raw)) - firstEnd}}
	if health.Journal != want {
		t.Fatalf("healthz journal = %+v, want %+v", health.Journal, want)
	}
	var info sessionInfo
	if rec := serveJSON(t, h, context.Background(), "GET", "/api/sessions/aaaa", nil, &info); rec.Code != http.StatusOK || info.NumLabels != 0 {
		t.Fatalf("restored session = %d with %d labels, want the create-only prefix", rec.Code, info.NumLabels)
	}
	_, metrics := rawJSON(t, h, "GET", "/metricz", nil)
	for _, line := range []string{
		"viewseeker_store_journal_torn_tails_total 1",
		"viewseeker_store_journal_recovered_records_total 1",
		fmt.Sprintf("viewseeker_store_journal_truncated_bytes_total %d", want.TornBytes),
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Errorf("/metricz lacks %q", line)
		}
	}
}

// frameEnd returns the offset just past the WAL frame starting at off:
// a u32 little-endian payload length, a u32 checksum, then the payload.
func frameEnd(t *testing.T, raw []byte, off int64) int64 {
	t.Helper()
	if off+8 > int64(len(raw)) {
		t.Fatalf("no frame at offset %d", off)
	}
	return off + 8 + int64(binary.LittleEndian.Uint32(raw[off:]))
}
