package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reopen opens the journal at path afresh and returns what it recovered.
func reopen(t *testing.T, path string) ([]Record, JournalRecovery) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Recovered(), j.Recovery()
}

func sampleRecords() []Record {
	return []Record{
		{Op: OpCreate, Session: "abc", Table: "diab", Query: "SELECT * FROM diab", K: 5, Alpha: 0.5, Strategy: "random", Seed: 9, Workers: 2},
		{Op: OpFeedback, Session: "abc", View: 0, Label: 0},
		{Op: OpFeedback, Session: "abc", View: 17, Label: 0.75},
		{Op: OpDelete, Session: "abc"},
	}
}

func TestJournalAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDelete, Session: "x"}); err == nil {
		t.Error("append after close succeeded")
	}
	got, rec := reopen(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if rec != (JournalRecovery{Records: len(want)}) {
		t.Errorf("recovery = %+v", rec)
	}
}

func TestJournalRejectsRecordsThatCannotRoundTrip(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, bad := range []Record{
		{Op: "rename", Session: "a"},
		{Op: OpCreate},
		{Op: OpDelete, Session: "a", View: 3},
		{Op: OpFeedback, Session: "a", Query: "q"},
		{Op: OpFeedback, Session: "a", Label: math.NaN()},
	} {
		if err := j.Append(bad); err == nil {
			t.Errorf("Append(%+v) succeeded", bad)
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, rec := reopen(t, filepath.Join(t.TempDir(), "absent.wal"))
	if len(recs) != 0 || rec != (JournalRecovery{}) {
		t.Fatalf("missing journal: recs=%v recovery=%+v", recs, rec)
	}
}

func TestJournalTornTailIsTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:2]
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: the first bytes of a third frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, rec := reopen(t, path)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recovered %+v, want the 2 intact records", recs)
	}
	if !rec.TornTail || rec.TornBytes != 6 || rec.Records != 2 {
		t.Fatalf("recovery = %+v, want a reported 6-byte torn tail", rec)
	}
	// The truncation is durable: the next open finds a clean log, and
	// appends after the tear land after the intact records.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Recovery().TornTail {
		t.Error("torn tail reported again after truncation")
	}
	if err := j2.Append(sampleRecords()[2]); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if recs, _ := reopen(t, path); !reflect.DeepEqual(recs, sampleRecords()[:3]) {
		t.Fatalf("after append past the tear: %+v", recs)
	}
}

// TestJournalSingleByteFlip damages a small journal one byte at a time.
// Every damaged copy must open to exactly the records before the damaged
// frame plus a reported truncation of the rest (or fail to open) — never
// to a record that was not appended, which the old JSON-lines reader
// produced for a flipped digit inside a still-valid line.
func TestJournalSingleByteFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	ends := make([]int64, len(want)) // byte offset where each frame ends
	for i, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = st.Size()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range clean {
		for _, mask := range []byte{0x01, 0xff} {
			damaged := append([]byte(nil), clean...)
			damaged[off] ^= mask
			p := filepath.Join(dir, "flipped.wal")
			if err := os.WriteFile(p, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			frame := 0
			for int64(off) >= ends[frame] {
				frame++
			}
			start := int64(0)
			if frame > 0 {
				start = ends[frame-1]
			}
			fj, err := OpenJournal(p)
			if err != nil {
				continue // a loud failure is an allowed outcome
			}
			got, rec := fj.Recovered(), fj.Recovery()
			fj.Close()
			if !reflect.DeepEqual(got, want[:frame]) {
				t.Fatalf("byte %d ^%#x: recovered %+v, want the %d records before the damaged frame", off, mask, got, frame)
			}
			if !rec.TornTail || rec.TornBytes != int64(len(clean))-start {
				t.Fatalf("byte %d ^%#x: recovery %+v, want a reported %d-byte truncation", off, mask, rec, int64(len(clean))-start)
			}
		}
	}
}

// TestJournalImportJSONL converts a journal in the JSON-lines format
// earlier releases wrote — torn last line included — once.
func TestJournalImportJSONL(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "journal.jsonl")
	path := filepath.Join(dir, "journal.wal")
	fixture := `{"op":"create","session":"abc","table":"diab","query":"SELECT * FROM diab","k":5,"alpha":0.5,"strategy":"random","seed":9,"workers":2,"view":0,"label":0}
{"op":"feedback","session":"abc","view":0,"label":0}
{"op":"feedback","session":"abc","view":17,"label":0.75}
{"op":"delete","session":"abc","view":0,"label":0}
{"op":"feedback","sess`
	if err := os.WriteFile(legacy, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	imported, skipped, err := ImportJSONL(legacy, path)
	if err != nil || imported != 4 || skipped != 1 {
		t.Fatalf("import = %d imported, %d skipped, %v", imported, skipped, err)
	}
	if recs, _ := reopen(t, path); !reflect.DeepEqual(recs, sampleRecords()) {
		t.Fatalf("imported %+v, want %+v", recs, sampleRecords())
	}
	if _, err := os.Stat(legacy + ".imported"); err != nil {
		t.Errorf("legacy journal not retired: %v", err)
	}
	// Once: the legacy file is retired, so a second run imports nothing.
	if imported, _, err := ImportJSONL(legacy, path); err != nil || imported != 0 {
		t.Fatalf("second import = %d, %v", imported, err)
	}
	if recs, _ := reopen(t, path); len(recs) != 4 {
		t.Fatalf("journal holds %d records after a second import, want 4", len(recs))
	}
	// A crash before the rename re-imports on the next boot: the records
	// repeat, and replay restores the same sessions.
	if err := os.Rename(legacy+".imported", legacy); err != nil {
		t.Fatal(err)
	}
	if imported, _, err := ImportJSONL(legacy, path); err != nil || imported != 4 {
		t.Fatalf("repeated import = %d, %v", imported, err)
	}
	recs, _ := reopen(t, path)
	if !reflect.DeepEqual(Replay(recs), Replay(sampleRecords())) {
		t.Fatalf("repeated import replays to %+v", Replay(recs))
	}
	// No legacy journal: nothing to do.
	if imported, _, err := ImportJSONL(filepath.Join(dir, "absent.jsonl"), filepath.Join(dir, "other.wal")); err != nil || imported != 0 {
		t.Fatalf("import of a missing journal = %d, %v", imported, err)
	}
}

func TestReplayCollapsesLifecycle(t *testing.T) {
	recs := []Record{
		{Op: OpCreate, Session: "s1", Table: "t", Query: "q1"},
		{Op: OpFeedback, Session: "s1", View: 1, Label: 1},
		{Op: OpCreate, Session: "s2", Table: "t", Query: "q2"},
		{Op: OpFeedback, Session: "s2", View: 2, Label: 0},
		{Op: OpDelete, Session: "s1"},
		{Op: OpFeedback, Session: "s1", View: 9, Label: 1},    // after delete: dropped
		{Op: OpFeedback, Session: "ghost", View: 0, Label: 1}, // never created: dropped
		{Op: OpDelete, Session: "missing"},                    // no-op
		{Op: OpFeedback, Session: "s2", View: 5, Label: 0.25},
	}
	logs := Replay(recs)
	if len(logs) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(logs))
	}
	lg := logs[0]
	if lg.Create.Session != "s2" || lg.Create.Query != "q2" {
		t.Fatalf("wrong create record: %+v", lg.Create)
	}
	if len(lg.Feedback) != 2 || lg.Feedback[0].View != 2 || lg.Feedback[1].View != 5 {
		t.Fatalf("feedback = %+v", lg.Feedback)
	}
}

func TestReplayRecreateReplacesSession(t *testing.T) {
	recs := []Record{
		{Op: OpCreate, Session: "s1", Table: "t", Query: "old"},
		{Op: OpFeedback, Session: "s1", View: 1, Label: 1},
		{Op: OpCreate, Session: "s1", Table: "t", Query: "new"},
		{Op: OpFeedback, Session: "s1", View: 2, Label: 0},
	}
	logs := Replay(recs)
	if len(logs) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(logs))
	}
	if logs[0].Create.Query != "new" || len(logs[0].Feedback) != 1 || logs[0].Feedback[0].View != 2 {
		t.Fatalf("recreate did not replace: %+v", logs[0])
	}
}
