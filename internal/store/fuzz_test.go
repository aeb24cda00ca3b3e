package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walFrame wraps a batch payload in the WAL's record frame: u32 length,
// u32 CRC-32C, payload.
func walFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// FuzzJournalRecord decodes arbitrary batch payloads through the WAL's
// real recovery path and checks the journal's row mapping on every row it
// yields: a row either maps to a valid record or is rejected, and a
// record it maps to round-trips — back to the identical row, and through
// an append and a reopen of a journal to the identical record. The seed
// corpus is the frames of the journal tests' records.
func FuzzJournalRecord(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	j, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range append(sampleRecords(), Record{Op: OpCreate, Session: "s", Table: "t", Query: "q", K: -1, Alpha: 1e-300, Seed: -9}) {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for off := 0; off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		payload := append([]byte(nil), raw[off+8:off+8+n]...)
		binary.LittleEndian.PutUint64(payload, 1) // every seed as the log's first frame
		f.Add(payload)
		off += 8 + n
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		src := filepath.Join(dir, "src.wal")
		if err := os.WriteFile(src, walFrame(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		// Opening maps the decoded row: a rejected row fails the open.
		j, err := OpenJournal(src)
		if err != nil {
			return
		}
		recs := j.Recovered()
		j.Close()
		if len(recs) != 1 {
			return // the payload did not decode as a first frame
		}
		rec := recs[0]
		row, err := recordRow(rec)
		if err != nil {
			t.Fatalf("recovered record %+v does not map back to a row: %v", rec, err)
		}
		back, err := rowRecord(row)
		if err != nil || back != rec {
			t.Fatalf("row round trip: %+v -> %+v (%v)", rec, back, err)
		}
		dst := filepath.Join(dir, "dst.wal")
		j2, err := OpenJournal(dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.Append(rec); err != nil {
			t.Fatalf("appending recovered record %+v: %v", rec, err)
		}
		j2.Close()
		j3, err := OpenJournal(dst)
		if err != nil {
			t.Fatal(err)
		}
		defer j3.Close()
		if got := j3.Recovered(); len(got) != 1 || got[0] != rec {
			t.Fatalf("journal round trip: %+v -> %+v", rec, got)
		}
	})
}
