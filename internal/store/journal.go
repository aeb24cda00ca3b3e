package store

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
	"viewseeker/internal/wal"
)

// Journal record operations.
const (
	OpCreate   = "create"
	OpFeedback = "feedback"
	OpDelete   = "delete"
)

// Record is one journal entry: a session lifecycle event. Create records
// carry the full session configuration; since selection and refinement are
// deterministic functions of (configuration, labels), replaying a
// session's create followed by its feedback records through a fresh seeker
// reconstructs the session exactly. The JSON tags are the line format
// earlier releases journalled in, read only by ImportJSONL.
type Record struct {
	Op      string `json:"op"`
	Session string `json:"session"`

	// Create fields.
	Table    string  `json:"table,omitempty"`
	Query    string  `json:"query,omitempty"`
	K        int     `json:"k,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`

	// Feedback fields (no omitempty: view 0 and label 0 are meaningful).
	View  int     `json:"view"`
	Label float64 `json:"label"`
}

// recordRow maps a record to its one-row WAL batch: op and session, then
// the fields its op carries in declaration order — seven for create, view
// and label for feedback, none for delete. A record that could not
// round-trip (a field its op does not carry, an empty session, a NaN) is
// rejected.
func recordRow(rec Record) ([]dataset.Value, error) {
	row := []dataset.Value{dataset.StringVal(rec.Op), dataset.StringVal(rec.Session)}
	switch rec.Op {
	case OpCreate:
		row = append(row, dataset.StringVal(rec.Table), dataset.StringVal(rec.Query),
			dataset.Int(int64(rec.K)), dataset.Float(rec.Alpha), dataset.StringVal(rec.Strategy),
			dataset.Int(rec.Seed), dataset.Int(int64(rec.Workers)))
	case OpFeedback:
		row = append(row, dataset.Int(int64(rec.View)), dataset.Float(rec.Label))
	}
	if back, err := rowRecord(row); err != nil || back != rec {
		return nil, fmt.Errorf("store: journal record %+v does not fit its op", rec)
	}
	return row, nil
}

// rowKinds is the row layout of each op after its op and session values.
var rowKinds = map[string][]dataset.Kind{
	OpCreate: {dataset.KindString, dataset.KindString, dataset.KindInt, dataset.KindFloat,
		dataset.KindString, dataset.KindInt, dataset.KindInt},
	OpFeedback: {dataset.KindInt, dataset.KindFloat},
	OpDelete:   {},
}

// rowRecord reverses recordRow, rejecting any row it could not have
// produced.
func rowRecord(row []dataset.Value) (Record, error) {
	if len(row) < 2 || row[0].Kind != dataset.KindString || row[1].Kind != dataset.KindString || row[1].S == "" {
		return Record{}, fmt.Errorf("store: journal row %v has no op and session", row)
	}
	kinds, ok := rowKinds[row[0].S]
	ok = ok && len(row) == 2+len(kinds)
	for i := 0; ok && i < len(kinds); i++ {
		ok = row[2+i].Kind == kinds[i] && !math.IsNaN(row[2+i].F)
	}
	if !ok {
		return Record{}, fmt.Errorf("store: journal row %v does not match its op", row)
	}
	rec := Record{Op: row[0].S, Session: row[1].S}
	switch rec.Op {
	case OpCreate:
		rec.Table, rec.Query, rec.K, rec.Alpha = row[2].S, row[3].S, int(row[4].I), row[5].F
		rec.Strategy, rec.Seed, rec.Workers = row[6].S, row[7].I, int(row[8].I)
	case OpFeedback:
		rec.View, rec.Label = int(row[2].I), row[3].F
	}
	return rec, nil
}

// JournalRecovery reports what opening a journal found: a torn or damaged
// frame truncates the log at its start, dropping it and all after it.
type JournalRecovery struct {
	Records   int   `json:"recoveredRecords"` // records in the committed prefix
	TornTail  bool  `json:"tornTail"`
	TornBytes int64 `json:"truncatedBytes"`
}

// Journal is the append-only log of session records as WAL frames
// (internal/wal), one single-row batch per record. Opening it runs the
// WAL's recovery, whose records (Recovered) are the only way the journal
// is read back. Appends do not fsync; Sync and Close do. Safe for
// concurrent use.
//
// Failure semantics are the WAL's: a failed write is retried, completing
// a torn frame's suffix; once retries exhaust, the partial frame is
// truncated away, the append fails and the journal is Degraded until the
// next successful append. If even the truncation fails, the log is
// poisoned and every later append fails until the journal is reopened.
type Journal struct {
	mu       sync.Mutex
	w        *wal.WAL
	recs     []Record
	recovery JournalRecovery
	logBytes int64 // committed log size after the last append

	degraded atomic.Bool

	// Metric handles, nil until Instrument is called; nil-safe throughout.
	mAppends, mBytes              *obs.Counter
	mDegradedTransitions          *obs.Counter
	mRetryBackoffs, mRetryExhaust *obs.Counter
	mDegraded                     *obs.Gauge
	mAppendSeconds                *obs.Histogram
}

// OpenJournal opens (creating if needed) the journal at path, recovering
// its committed records and truncating a torn or damaged tail.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(faultfs.OS{}, path, retry.Policy{})
}

// OpenJournalFS is OpenJournal over an explicit filesystem and append
// retry schedule (the zero Policy selects retry.Default()) — the
// fault-injection seam. An intact frame that does not decode to a record
// fails the open; it is never skipped.
func OpenJournalFS(fs faultfs.FS, path string, policy retry.Policy) (*Journal, error) {
	if policy.Attempts == 0 {
		policy = retry.Default()
	}
	// Backoffs are counted by wrapping Sleep (run by Append, under j.mu):
	// the WAL copies the policy now, before Instrument.
	j := &Journal{}
	sleep := policy.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	policy.Sleep = func(d time.Duration) { j.mRetryBackoffs.Inc(); sleep(d) }
	// The journal's WAL is never instrumented: the viewseeker_wal_* series
	// belong to the live tables.
	w, rec, err := wal.Open(fs, path, wal.Options{SyncEvery: math.MaxInt, Retry: policy})
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	j.w, j.logBytes = w, rec.CommittedBytes
	j.recovery = JournalRecovery{Records: len(rec.Batches), TornTail: rec.TornTail, TornBytes: rec.TornBytes}
	j.recs = make([]Record, 0, len(rec.Batches))
	for _, b := range rec.Batches {
		r, err := rowRecord(b.Rows[0])
		if err == nil && len(b.Rows) != 1 {
			err = fmt.Errorf("store: journal frame holds %d rows", len(b.Rows))
		}
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("store: journal %s, frame %d: %w", path, b.Seq, err)
		}
		j.recs = append(j.recs, r)
	}
	return j, nil
}

// Recovered returns the records the journal held when it was opened, in
// log order.
func (j *Journal) Recovered() []Record { return j.recs }

// Recovery reports what opening the journal found on disk.
func (j *Journal) Recovery() JournalRecovery { return j.recovery }

// Degraded reports whether the last append failed: records written while
// the flag is set were lost and will not survive a restart.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Instrument registers the journal's metrics against reg: append count,
// bytes and latency, the degraded gauge and transition counter, the
// shared retry counters, and what opening the journal recovered and
// truncated. Call once at wiring time; an uninstrumented journal records
// nothing.
func (j *Journal) Instrument(reg *obs.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.mAppends = reg.Counter("viewseeker_store_journal_appends_total")
	j.mBytes = reg.Counter("viewseeker_store_journal_bytes_total")
	j.mAppendSeconds = reg.Histogram("viewseeker_store_journal_append_seconds", obs.DurationBuckets)
	j.mDegraded = reg.Gauge(`viewseeker_store_degraded{component="journal"}`)
	j.mDegradedTransitions = reg.Counter(`viewseeker_store_degraded_transitions_total{component="journal"}`)
	j.mRetryBackoffs = reg.Counter("viewseeker_retry_backoffs_total")
	j.mRetryExhaust = reg.Counter("viewseeker_retry_exhausted_total")
	reg.Counter("viewseeker_store_journal_recovered_records_total").Add(int64(j.recovery.Records))
	reg.Counter("viewseeker_store_journal_truncated_bytes_total").Add(j.recovery.TornBytes)
	if j.recovery.TornTail {
		reg.Counter("viewseeker_store_journal_torn_tails_total").Inc()
	}
}

// Append writes one record as one WAL frame. On failure the journal marks
// itself degraded and the error is returned — callers deciding to keep
// serving without durability (the HTTP server does) log it and move on.
func (j *Journal) Append(rec Record) error {
	row, err := recordRow(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Now()
	defer func() { j.mAppendSeconds.ObserveDuration(time.Since(start)) }()
	if _, err := j.w.Append([][]dataset.Value{row}); err != nil {
		j.mRetryExhaust.Inc()
		if !j.degraded.Swap(true) {
			j.mDegradedTransitions.Inc()
		}
		j.mDegraded.Set(1)
		return fmt.Errorf("store: journal append: %w", err)
	}
	j.degraded.Store(false)
	j.mDegraded.Set(0)
	j.mAppends.Inc()
	n := j.w.Bytes()
	j.mBytes.Add(n - j.logBytes)
	j.logBytes = n
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error { return j.w.Sync() }

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error { return j.w.Close() }

// SessionLog is the collapsed journal state of one session that is still
// live at the end of the log: its create record plus its feedback records
// in arrival order.
type SessionLog struct {
	Create   Record
	Feedback []Record
}

// Replay collapses a record stream into the live sessions' logs, in
// creation order: deletes remove sessions, feedback for unknown (deleted
// or never created) sessions is dropped, and a second create under an
// existing id replaces the first — the log's last writer wins, matching
// what the server it journals would have in memory.
func Replay(recs []Record) []SessionLog {
	byID := make(map[string]*SessionLog)
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case OpCreate:
			if _, exists := byID[rec.Session]; !exists {
				order = append(order, rec.Session)
			}
			byID[rec.Session] = &SessionLog{Create: rec}
		case OpFeedback:
			if log, ok := byID[rec.Session]; ok {
				log.Feedback = append(log.Feedback, rec)
			}
		case OpDelete:
			delete(byID, rec.Session)
		}
	}
	out := make([]SessionLog, 0, len(byID))
	for _, id := range order {
		if log, ok := byID[id]; ok {
			out = append(out, *log)
		}
	}
	return out
}
