// Package wal is the redo log behind live tables: every append batch is
// written as one length-prefixed, CRC-32C-checksummed record before it is
// applied in memory, so a crash can lose at most the batches inside the
// current fsync window and can never corrupt what came before.
//
// # Record format
//
// A record is `u32 payloadLen | u32 crc32c(payload) | payload`, all
// little-endian. The payload carries the batch sequence number, the
// row/column counts, and the rows row-major with a one-byte kind tag per
// value (null/int/float/string/bool) — schema-independent, so recovery
// decodes without the table in hand. Sequence numbers start at 1 and
// increase by exactly 1 per committed batch.
//
// # Recovery contract
//
// Open replays the log front to back, stopping at the first record that
// fails any check (frame length sanity, checksum, payload decode, sequence
// chain) and truncating the file back to the last good boundary. The
// committed prefix is returned as ordered batches; the torn tail — the
// signature of a kill mid-write — is discarded and counted. Replaying N
// batches over the base table always yields the same table a clean run of
// the same N appends would have, which is what the live-table layer's
// fault-injection tests pin.
//
// # Compaction
//
// CompactThrough(seq) drops every record at or below seq, rewriting the
// retained suffix atomically (temp file + rename; an up-to-date log is
// simply truncated to empty). A compacted log no longer starts at
// sequence 1, so it must be opened with Options.SkipThrough set to the
// compaction point — the caller (internal/live) records it in its
// checkpoint snapshot. During recovery, frames at or below SkipThrough
// are fully validated but dropped into Recovery.SkippedFrames instead of
// replayed; that makes recovery idempotent when a crash lands between
// "snapshot durable" and "log compacted", when snapshot and full log
// briefly coexist. Opening a compacted log without its SkipThrough is
// reported as a torn tail, never replayed against the wrong base.
//
// # Failure semantics
//
// Append writes the whole record in one Write and retries torn writes by
// completing the missing suffix (the store's session journal is a WAL too,
// so it inherits all of this). If retries exhaust, the partial frame is truncated away
// and the append fails with the log intact; if even truncation fails, the
// log poisons itself and refuses further appends until reopened — an
// unrepaired tear must not be buried under new records. Fsyncs batch per
// Options.SyncEvery and are timed into viewseeker_wal_fsync_seconds.
//
// Observability: Instrument registers viewseeker_wal_* counters, the
// last-sequence gauge, and the fsync histogram per the DESIGN.md §11
// schema; uninstrumented WALs pay nothing (nil-safe handles).
package wal
