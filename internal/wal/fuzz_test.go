package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seedLogs builds the seed corpus the way the recovery tests build their
// logs: a clean multi-batch log, the same log with a torn tail, with a
// flipped payload byte, and with its sequence chain broken — plus one
// checksum-valid frame whose header claims far more rows than its payload
// holds, which must be rejected before it sizes an allocation.
func seedLogs(f *testing.F) [][]byte {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, _, err := Open(nil, path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(testRows(2+i, i*10)); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x10
	// Frame two re-appended after frame three: a valid frame whose seq
	// breaks the chain.
	first := recordHeaderLen + int(uint32le(clean))
	second := first + recordHeaderLen + int(uint32le(clean[first:]))
	broken := append(append([]byte(nil), clean...), clean[first:second]...)
	huge := binary.LittleEndian.AppendUint64(nil, 1)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<29)
	huge = binary.LittleEndian.AppendUint32(huge, 1)
	huge = append(huge, tagNull)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(huge)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(huge, crcTable))
	return [][]byte{nil, clean, clean[:len(clean)-5], flipped, broken, append(frame, huge...)}
}

// FuzzWALRecover treats arbitrary bytes as a log file. Open must never
// panic or fail on content alone; the recovered batches must form a
// contiguous sequence chain from 1; the committed prefix plus the
// truncated tail must account for every byte; and re-opening the
// truncated file must recover the same batches with no torn tail.
func FuzzWALRecover(f *testing.F) {
	for _, seed := range seedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, rec, err := Open(nil, path, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		w.Close()
		for i, b := range rec.Batches {
			if b.Seq != uint64(i+1) {
				t.Fatalf("batch %d has seq %d: chain not contiguous from 1", i, b.Seq)
			}
		}
		if rec.LastSeq != uint64(len(rec.Batches)) {
			t.Fatalf("LastSeq %d with %d batches", rec.LastSeq, len(rec.Batches))
		}
		if rec.CommittedBytes+rec.TornBytes != int64(len(data)) || rec.TornTail != (rec.TornBytes > 0) {
			t.Fatalf("committed %d + torn %d (tail %v) does not account for %d bytes",
				rec.CommittedBytes, rec.TornBytes, rec.TornTail, len(data))
		}
		w2, rec2, err := Open(nil, path, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		w2.Close()
		if rec2.TornTail || len(rec2.Batches) != len(rec.Batches) {
			t.Fatalf("reopen: torn=%v, %d batches, want clean with %d", rec2.TornTail, len(rec2.Batches), len(rec.Batches))
		}
		for i := range rec.Batches {
			// Compare encodings, not values: a NaN float never equals itself.
			a, errA := encodeBatch(rec.Batches[i])
			b, errB := encodeBatch(rec2.Batches[i])
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("reopen: batch %d differs", i)
			}
		}
	})
}
