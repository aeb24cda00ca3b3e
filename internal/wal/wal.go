package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
)

// Batch is one committed append: a contiguous run of rows (boxed values in
// schema order) under a monotone sequence number. Sequence numbers start at
// 1 and increase by exactly 1 per committed batch; Open verifies the chain
// during recovery, so a corrupted or cross-copied log can never replay out
// of order.
type Batch struct {
	Seq  uint64
	Rows [][]dataset.Value
}

// Options configures a WAL.
type Options struct {
	// SyncEvery batches fsyncs: the log syncs after every SyncEvery-th
	// committed batch instead of after each one (and always on Sync and
	// Close). <= 1 syncs every append — the durable default; larger values
	// trade up to SyncEvery-1 most-recent batches on a crash for append
	// throughput. Recovery is unaffected either way: the on-disk prefix is
	// always a valid record sequence.
	SyncEvery int
	// Retry is the append retry schedule; the zero value selects
	// retry.Default().
	Retry retry.Policy
	// SkipThrough marks the sequence number already covered by an external
	// snapshot: recovery still validates every on-disk frame, but batches
	// with Seq <= SkipThrough are dropped from Recovery.Batches (counted in
	// Recovery.SkippedFrames) instead of being replayed. This is how a
	// checkpointed log tolerates the crash window between the snapshot
	// rename and the log truncation — duplicate suffix frames are detected
	// by seq and skipped. The log may legitimately begin at any seq in
	// [1, SkipThrough+1]; the chain must be contiguous from there.
	SkipThrough uint64
}

// Value kind tags of the record payload encoding.
const (
	tagNull = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// recordHeaderLen is the fixed per-record frame: payload length then
// CRC-32C of the payload, both little-endian u32. Length-prefixing finds
// record boundaries; the checksum rejects torn or bit-rotted payloads.
const recordHeaderLen = 8

// maxPayload bounds a single record so a corrupted length field can never
// drive recovery into a multi-gigabyte allocation.
const maxPayload = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is a redo log of table append batches: length-prefixed, checksummed
// records, written whole and fsynced on a batching schedule. The write
// path is Append; the recovery path is Open, which replays the committed
// prefix and truncates a torn tail. All methods are safe for concurrent
// use.
//
// Failure semantics: a write that persists only part of a record is
// retried by completing the missing suffix — the record is length-prefixed,
// so the byte stream is position-independent to resume. If retries
// exhaust, the torn tail is truncated away (restoring the committed
// prefix) and the append fails cleanly; if even truncation fails, the log
// is poisoned and every later append errors until the process reopens it —
// an un-repairable tail must never take more records, because a reader
// would lose everything after the tear.
type WAL struct {
	mu        sync.Mutex
	fs        faultfs.FS
	f         faultfs.File
	path      string
	seq       uint64 // last committed sequence number
	committed int64  // bytes of fully committed records on disk
	sinceSync int
	syncEvery int
	policy    retry.Policy
	poisoned  error // non-nil: the tail is torn and could not be repaired

	lastSeq atomic.Uint64

	// Metric handles, nil until Instrument; nil-safe throughout.
	mAppends, mBytes  *obs.Counter
	mTruncations      *obs.Counter
	mRetryBackoffs    *obs.Counter
	mRetryExhaust     *obs.Counter
	mLastSeq          *obs.Gauge
	mDiskBytes        *obs.Gauge
	mFsyncSeconds     *obs.Histogram
	mRecoveredBatches *obs.Counter
	mTornTails        *obs.Counter
	mCompactions      *obs.Counter
}

// Open opens (creating if needed) the log at path, replays its committed
// records, and returns the opened WAL positioned after them together with
// the recovered batches in sequence order. A torn tail — an incomplete or
// checksum-failing final record, the signature of a crash or disk fault
// mid-write — is truncated away and counted in Recovery.TornTail; every
// record before it survives.
func Open(fs faultfs.FS, path string, opts Options) (*WAL, *Recovery, error) {
	if fs == nil {
		fs = faultfs.OS{}
	}
	rec, err := recover_(fs, path, opts.SkipThrough)
	if err != nil {
		return nil, nil, err
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	syncEvery := opts.SyncEvery
	if syncEvery < 1 {
		syncEvery = 1
	}
	policy := opts.Retry
	if policy.Attempts == 0 {
		policy = retry.Default()
	}
	w := &WAL{
		fs: fs, f: f, path: path,
		seq: rec.LastSeq, committed: rec.CommittedBytes,
		syncEvery: syncEvery, policy: policy,
	}
	w.lastSeq.Store(rec.LastSeq)
	return w, rec, nil
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Batches are the committed batches in sequence order, excluding any
	// dropped by Options.SkipThrough.
	Batches []Batch
	// LastSeq is the last committed sequence number: the last frame's seq,
	// or Options.SkipThrough when the log holds nothing past it (0 for an
	// empty, uncheckpointed log).
	LastSeq uint64
	// SkippedFrames counts valid frames dropped because their seq was
	// already covered by Options.SkipThrough.
	SkippedFrames int
	// CommittedBytes is the on-disk length of the committed prefix.
	CommittedBytes int64
	// TornTail reports whether a torn tail was found and truncated.
	TornTail bool
	// TornBytes is how many trailing bytes the truncation discarded.
	TornBytes int64
}

// recover_ scans the log, validating each record's frame, checksum,
// payload encoding and sequence chain, and truncates the file back to the
// last valid record boundary when anything past it fails.
func recover_(fs faultfs.FS, path string, skipThrough uint64) (*Recovery, error) {
	rec := &Recovery{LastSeq: skipThrough}
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return rec, nil
		}
		return nil, fmt.Errorf("wal: opening %s for recovery: %w", path, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var read int64     // total bytes consumed, valid or not
	var prevSeq uint64 // seq of the last valid frame (0: none yet)
	header := make([]byte, recordHeaderLen)
	var payload []byte
	for {
		n, herr := io.ReadFull(br, header)
		read += int64(n)
		if herr != nil {
			if herr != io.EOF {
				rec.TornTail = true
			}
			break
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxPayload {
			rec.TornTail = true
			break
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		n, perr := io.ReadFull(br, payload)
		read += int64(n)
		if perr != nil {
			rec.TornTail = true
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			rec.TornTail = true
			break
		}
		b, derr := decodeBatch(payload)
		if derr != nil {
			rec.TornTail = true
			break
		}
		if prevSeq == 0 {
			// First frame: an uncompacted log starts at 1; a compacted one
			// starts anywhere up to skipThrough+1 (the snapshot covers the
			// rest). Anything else is a foreign or corrupted log.
			if b.Seq == 0 || b.Seq > skipThrough+1 {
				rec.TornTail = true
				break
			}
		} else if b.Seq != prevSeq+1 {
			rec.TornTail = true
			break
		}
		prevSeq = b.Seq
		rec.CommittedBytes += recordHeaderLen + int64(length)
		if b.Seq <= skipThrough {
			rec.SkippedFrames++
			continue
		}
		rec.Batches = append(rec.Batches, b)
		rec.LastSeq = b.Seq
	}
	if !rec.TornTail {
		// io.ReadFull hit clean EOF exactly at a record boundary only when
		// no header bytes were read; a partial header is a torn tail.
		rec.TornTail = read > rec.CommittedBytes
	}
	if rec.TornTail {
		// Everything after the first bad frame is discarded too: count it.
		n, _ := io.Copy(io.Discard, br)
		read += n
	}
	f.Close()
	if rec.TornTail {
		// The scanner stopped mid-garbage; the file may extend beyond what
		// it consumed. Truncating to the committed prefix discards all of
		// it — size-agnostic, so we never need to stat through faultfs.
		rec.TornBytes = read - rec.CommittedBytes
		if err := fs.Truncate(path, rec.CommittedBytes); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	return rec, nil
}

// Instrument registers the WAL's metrics against reg (DESIGN.md §11 name
// schema): append count/bytes, fsync latency, last committed sequence,
// torn-tail truncations, and the shared retry counters. Call once at
// wiring time; an uninstrumented WAL records nothing.
func (w *WAL) Instrument(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mAppends = reg.Counter("viewseeker_wal_appends_total")
	w.mBytes = reg.Counter("viewseeker_wal_bytes_total")
	w.mFsyncSeconds = reg.Histogram("viewseeker_wal_fsync_seconds", obs.DurationBuckets)
	w.mLastSeq = reg.Gauge("viewseeker_wal_last_seq")
	w.mDiskBytes = reg.Gauge("viewseeker_wal_bytes")
	w.mTruncations = reg.Counter("viewseeker_wal_truncations_total")
	w.mRecoveredBatches = reg.Counter("viewseeker_wal_recovered_batches_total")
	w.mTornTails = reg.Counter("viewseeker_wal_torn_tails_total")
	w.mCompactions = reg.Counter("viewseeker_wal_compactions_total")
	w.mRetryBackoffs = reg.Counter("viewseeker_retry_backoffs_total")
	w.mRetryExhaust = reg.Counter("viewseeker_retry_exhausted_total")
	w.mLastSeq.Set(int64(w.seq))
	w.mDiskBytes.Set(w.committed)
}

// RecordRecovery feeds one Open's Recovery into the instrumented counters,
// so restart behaviour is visible at /metricz.
func (w *WAL) RecordRecovery(rec *Recovery) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mRecoveredBatches.Add(int64(len(rec.Batches)))
	if rec.TornTail {
		w.mTornTails.Inc()
	}
}

// Seq returns the last committed sequence number.
func (w *WAL) Seq() uint64 { return w.lastSeq.Load() }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Bytes returns the on-disk size of the committed log in bytes. Replay
// cost is proportional to it, which makes it the natural checkpoint
// trigger.
func (w *WAL) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.committed
}

// Append commits one batch of rows and returns its sequence number. The
// record is written as a single frame and fsynced per the SyncEvery
// schedule; on return the batch either is durable (or scheduled within the
// current sync window) or the log is exactly as it was — a failed append
// never leaves a half-record for recovery to trip over (see WAL failure
// semantics).
func (w *WAL) Append(rows [][]dataset.Value) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if w.poisoned != nil {
		return 0, fmt.Errorf("wal: log has an unrepaired torn tail (reopen to recover): %w", w.poisoned)
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	seq := w.seq + 1
	payload, err := encodeBatch(Batch{Seq: seq, Rows: rows})
	if err != nil {
		return 0, err
	}
	frame := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[recordHeaderLen:], payload)

	policy := w.policy
	policy.Backoffs = w.mRetryBackoffs
	policy.Exhausted = w.mRetryExhaust
	// written tracks how many frame bytes reached the file across retries:
	// a torn write persists a prefix, so the retry completes the suffix
	// rather than rewriting (and thereby corrupting) the record.
	written := 0
	err = policy.Do(context.Background(), func() error {
		n, werr := w.f.Write(frame[written:])
		written += n
		return werr
	})
	if err != nil {
		if written > 0 {
			// Retries exhausted mid-record: chop the partial frame so the
			// log ends at the committed prefix again.
			if terr := w.fs.Truncate(w.path, w.committed); terr != nil {
				w.poisoned = terr
				return 0, fmt.Errorf("wal: append tore at %d/%d bytes and truncation failed: %w",
					written, len(frame), terr)
			}
			w.mTruncations.Inc()
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.seq = seq
	w.committed += int64(len(frame))
	w.lastSeq.Store(seq)
	w.mAppends.Inc()
	w.mBytes.Add(int64(len(frame)))
	w.mLastSeq.Set(int64(seq))
	w.mDiskBytes.Set(w.committed)
	w.sinceSync++
	if w.sinceSync >= w.syncEvery {
		if err := w.syncLocked(); err != nil {
			// The record is written but not yet durable; the next sync (or
			// Close) retries. Surface the error — callers decide whether
			// lost durability fails the append.
			return seq, fmt.Errorf("wal: fsync after append: %w", err)
		}
	}
	return seq, nil
}

// Sync flushes committed records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	start := time.Now()
	err := w.f.Sync()
	w.mFsyncSeconds.ObserveDuration(time.Since(start))
	if err == nil {
		w.sinceSync = 0
	}
	return err
}

// CompactThrough drops every committed record with sequence number <= seq
// from the log: the caller has persisted a snapshot covering them, so
// replay no longer needs them. When seq covers the whole log the file is
// truncated to zero in place (the open O_APPEND handle stays valid — later
// appends continue at the new end); otherwise the retained suffix is
// rewritten into a temp file, fsynced, and atomically renamed over the
// log. The sequence chain is NOT reset: the next append still gets the
// next seq, and recovery accepts a log starting past 1 when told the
// snapshot's coverage via Options.SkipThrough.
func (w *WAL) CompactThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if w.poisoned != nil {
		return fmt.Errorf("wal: log has an unrepaired torn tail (reopen to recover): %w", w.poisoned)
	}
	if seq >= w.seq {
		if err := w.fs.Truncate(w.path, 0); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", w.path, err)
		}
		w.committed = 0
		w.sinceSync = 0
		w.mCompactions.Inc()
		w.mDiskBytes.Set(0)
		return nil
	}
	kept, err := w.rewriteRetained(seq)
	if err != nil {
		return err
	}
	w.committed = kept
	w.sinceSync = 0
	w.mCompactions.Inc()
	w.mDiskBytes.Set(kept)
	return nil
}

// rewriteRetained copies the frames with seq > through into a temp file
// and swaps it in for the log, returning the retained byte count. Called
// with w.mu held. The committed prefix is valid by construction (Open
// validated it and every later frame was written whole under the mutex),
// so frames are copied raw after a bounds check plus seq filter.
func (w *WAL) rewriteRetained(through uint64) (int64, error) {
	src, err := w.fs.Open(w.path)
	if err != nil {
		return 0, fmt.Errorf("wal: opening %s for compaction: %w", w.path, err)
	}
	defer src.Close()
	tmp, err := w.fs.CreateTemp(filepath.Dir(w.path), filepath.Base(w.path)+".compact-*")
	if err != nil {
		return 0, fmt.Errorf("wal: compaction temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Removing the temp is a no-op after a successful rename.
	defer w.fs.Remove(tmpName)
	br := bufio.NewReaderSize(src, 1<<16)
	bw := bufio.NewWriterSize(tmp, 1<<16)
	header := make([]byte, recordHeaderLen)
	var payload []byte
	var read, kept int64
	for read < w.committed {
		if _, err := io.ReadFull(br, header); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("wal: compaction read: %w", err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length < 16 || length > maxPayload {
			tmp.Close()
			return 0, fmt.Errorf("wal: compaction found implausible frame length %d", length)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("wal: compaction read: %w", err)
		}
		read += recordHeaderLen + int64(length)
		if binary.LittleEndian.Uint64(payload[0:8]) <= through {
			continue
		}
		if _, err := bw.Write(header); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("wal: compaction write: %w", err)
		}
		if _, err := bw.Write(payload); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("wal: compaction write: %w", err)
		}
		kept += recordHeaderLen + int64(length)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: compaction flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("wal: compaction fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("wal: compaction close: %w", err)
	}
	// Swap: close the append handle, rename, reopen. Reopening the same
	// path succeeds whether or not the rename did, so the log stays
	// appendable either way.
	w.f.Close()
	renameErr := w.fs.Rename(tmpName, w.path)
	f, openErr := w.fs.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if openErr != nil {
		w.f = nil
		return 0, fmt.Errorf("wal: reopening %s after compaction: %w", w.path, openErr)
	}
	w.f = f
	if renameErr != nil {
		return 0, fmt.Errorf("wal: swapping compacted log: %w", renameErr)
	}
	return kept, nil
}

// Close syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// encodeBatch serialises a batch payload: seq, row/column counts, then
// rows row-major with one kind tag per value. The encoding is
// schema-independent — recovery can decode without the table — and every
// variable-length field is length-prefixed, following the
// internal/store fingerprint conventions.
func encodeBatch(b Batch) ([]byte, error) {
	if len(b.Rows) == 0 {
		return nil, fmt.Errorf("wal: empty batch")
	}
	width := len(b.Rows[0])
	buf := make([]byte, 0, 16+len(b.Rows)*width*9)
	buf = binary.LittleEndian.AppendUint64(buf, b.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	for _, row := range b.Rows {
		if len(row) != width {
			return nil, fmt.Errorf("wal: ragged batch: row has %d values, want %d", len(row), width)
		}
		for _, v := range row {
			switch {
			case v.IsNull():
				buf = append(buf, tagNull)
			case v.Kind == dataset.KindInt:
				buf = append(buf, tagInt)
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			case v.Kind == dataset.KindFloat:
				buf = append(buf, tagFloat)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			case v.Kind == dataset.KindString:
				buf = append(buf, tagString)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
				buf = append(buf, v.S...)
			case v.Kind == dataset.KindBool:
				buf = append(buf, tagBool)
				if v.B {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			default:
				return nil, fmt.Errorf("wal: cannot encode value kind %v", v.Kind)
			}
		}
	}
	return buf, nil
}

// decodeBatch reverses encodeBatch. Every read is bounds-checked so a
// corrupted payload yields an error, never a panic.
func decodeBatch(p []byte) (Batch, error) {
	var b Batch
	if len(p) < 16 {
		return b, fmt.Errorf("wal: batch payload too short (%d bytes)", len(p))
	}
	b.Seq = binary.LittleEndian.Uint64(p[0:8])
	nrows := int(binary.LittleEndian.Uint32(p[8:12]))
	width := int(binary.LittleEndian.Uint32(p[12:16]))
	// Each value takes at least a tag byte: reject shapes before allocating.
	if nrows <= 0 || width <= 0 || width > 1<<16 || nrows > (len(p)-16)/width {
		return b, fmt.Errorf("wal: implausible batch shape %d×%d for a %d-byte payload", nrows, width, len(p))
	}
	off := 16
	b.Rows = make([][]dataset.Value, nrows)
	for r := range b.Rows {
		row := make([]dataset.Value, width)
		for c := range row {
			if off >= len(p) {
				return b, fmt.Errorf("wal: batch payload truncated at row %d", r)
			}
			tag := p[off]
			off++
			switch tag {
			case tagNull:
				row[c] = dataset.Null
			case tagInt:
				if off+8 > len(p) {
					return b, fmt.Errorf("wal: batch payload truncated in int value")
				}
				row[c] = dataset.Int(int64(binary.LittleEndian.Uint64(p[off:])))
				off += 8
			case tagFloat:
				if off+8 > len(p) {
					return b, fmt.Errorf("wal: batch payload truncated in float value")
				}
				row[c] = dataset.Float(math.Float64frombits(binary.LittleEndian.Uint64(p[off:])))
				off += 8
			case tagString:
				if off+4 > len(p) {
					return b, fmt.Errorf("wal: batch payload truncated in string length")
				}
				n := int(binary.LittleEndian.Uint32(p[off:]))
				off += 4
				if n < 0 || off+n > len(p) {
					return b, fmt.Errorf("wal: batch payload truncated in string value")
				}
				row[c] = dataset.StringVal(string(p[off : off+n]))
				off += n
			case tagBool:
				if off >= len(p) {
					return b, fmt.Errorf("wal: batch payload truncated in bool value")
				}
				row[c] = dataset.Bool(p[off] == 1)
				off++
			default:
				return b, fmt.Errorf("wal: unknown value tag %d", tag)
			}
		}
		b.Rows[r] = row
	}
	if off != len(p) {
		return b, fmt.Errorf("wal: %d trailing bytes after batch payload", len(p)-off)
	}
	return b, nil
}
