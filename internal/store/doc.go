// Package store persists the two kinds of server-side state the
// interactive phases sit on: the offline phase's output (view layouts
// plus the utility-feature matrix), kept in a content-addressed cache so
// a second session over the same (table, query, configuration) skips the
// offline pass entirely, and the interactive sessions themselves, kept as
// an append-only journal of labelling events whose deterministic replay
// reconstructs every estimator after a restart.
//
// # Contracts
//
// Content addressing: cache entries are immutable once stored and are
// invalidated purely by addressing — any input change produces a
// different fingerprint — so there is no invalidation API to misuse.
// Results are deep-copied on Put and Get; no session can leak its in-place
// refinements into another.
//
// One log format: the journal is internal/wal frames, one single-row
// batch per record, so every record is checksummed and sequence-chained.
// Opening it is the only read: a torn or damaged frame truncates the log
// to the records before it, and the truncation is reported (Recovery),
// never skipped over. ImportJSONL reads the JSON-lines journal of earlier
// releases once.
//
// Degraded mode (DESIGN.md §10): journal appends and cache snapshot
// writes run under retry.Policy; when retries exhaust, the write is
// dropped, the component marks itself Degraded, and the caller's request
// still succeeds. The next successful write clears the flag.
//
// Replay exactness: a session's create record plus its feedback records,
// replayed in order, reconstruct its estimator bit-identically — the
// pipeline is deterministic and the estimators are pure functions of the
// labelled sequence. The memory-budgeted session manager (DESIGN.md §16)
// leans on this: an evicted session keeps only its journal mirror and is
// rebuilt exactly on next touch, with the cache making the rebuild warm.
// Selection state included: it is a function of the labels.
//
// Observability: Instrument(reg) on Cache and Journal registers
// hit/miss/eviction, snapshot and append latency/bytes, degraded-state
// and retry metrics (DESIGN.md §11); an uninstrumented component pays
// only nil checks.
package store
