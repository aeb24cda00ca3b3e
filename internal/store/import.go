package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// ImportJSONL appends the records of a JSON-lines journal written by
// earlier releases to the WAL journal at path, then renames legacy to
// legacy+".imported" so the import runs once; a missing legacy file is a
// no-op. Torn or malformed lines are skipped and counted. A crash before
// the rename re-imports on the next boot, which restores the same
// sessions: a create record replaces any earlier one under its id.
func ImportJSONL(legacy, path string) (imported, skipped int, err error) {
	f, err := os.Open(legacy)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: opening legacy journal: %w", err)
	}
	defer f.Close()
	j, err := OpenJournal(path)
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() && err == nil {
		var rec Record
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			skipped++
		} else if _, rerr := recordRow(rec); rerr != nil {
			skipped++
		} else if err = j.Append(rec); err == nil {
			imported++
		}
	}
	if err == nil {
		err = sc.Err()
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(legacy, legacy+".imported")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: importing legacy journal: %w", err)
	}
	return imported, skipped, nil
}
