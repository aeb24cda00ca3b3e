package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"viewseeker"
	"viewseeker/internal/session"
	"viewseeker/internal/store"
)

// Sessions each traced replay re-runs (per pass).
const (
	replayCold = 4
	replayDIAB = 6
	replayLive = 12
)

func firstN(convs []*conv, n int) []*conv {
	if len(convs) < n {
		n = len(convs)
	}
	return convs[:n]
}

func createRecord(id string, table string, cv *conv) store.Record {
	return store.Record{Op: store.OpCreate, Session: id, Table: table, Query: cv.query,
		K: cv.k, Alpha: cv.alpha, Seed: cv.seed}
}

func (w *synCold) layers(lr *layerRun) error {
	refHash := store.HashTable(w.table)
	return lr.passes(func() error {
		cache := store.NewCache(0)
		mgr := session.NewManager(session.Config{})
		for i, cv := range firstN(w.convs, replayCold) {
			if err := lr.coldCreate(w.table, refHash, cache, cv); err != nil {
				return err
			}
			// The session the server would now hold, built outside the
			// timed steps from the entry the create just filled; rendering
			// one view's SQL builds the generator the cold path holds.
			sk, err := viewseeker.New(w.table, cv.query, viewseeker.Options{K: cv.k, Seed: cv.seed, Cache: cache, RefHash: refHash})
			if err != nil {
				return err
			}
			if _, err := sk.SQL(0); err != nil {
				return err
			}
			id := fmt.Sprintf("cold-%d", i)
			mgr.Put(id, createRecord(id, "syn", cv), nil, sk, false)
			if err := lr.converse(mgr, nil, id, cv.steps); err != nil {
				return err
			}
			mgr.Delete(id)
		}
		return nil
	})
}

func (w *diabWarm) layers(lr *layerRun) error {
	refHash := store.HashTable(w.table)
	return lr.passes(func() error {
		cache := store.NewCache(0)
		build := func(ctx context.Context, c store.Record) (*viewseeker.Seeker, error) {
			return viewseeker.NewCtx(ctx, w.table, c.Query, viewseeker.Options{
				K: c.K, Alpha: c.Alpha, Seed: c.Seed, Cache: cache, RefHash: refHash})
		}
		for _, q := range diabQueries { // fill the cache, as set-up does
			if _, err := build(context.Background(), store.Record{Query: q, K: 5, Alpha: diabAlpha}); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(".bench_build/tmp", "replay-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		j, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			return err
		}
		defer j.Close()
		mgr := session.NewManager(session.Config{BudgetBytes: w.budget})
		for i, cv := range firstN(w.convs, replayDIAB) {
			id := fmt.Sprintf("diab-%d", i)
			if err := lr.warmCreate(w.table, refHash, cache, j, id, cv); err != nil {
				return err
			}
			rec := createRecord(id, "diab", cv)
			sk, err := build(context.Background(), rec)
			if err != nil {
				return err
			}
			mgr.Put(id, rec, build, sk, false)
			if err := lr.converse(mgr, j, id, cv.steps[:8]); err != nil {
				return err
			}
			if err := lr.revisit(mgr, id); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *synLive) layers(lr *layerRun) error {
	return lr.passes(func() error {
		dir, err := os.MkdirTemp(".bench_build/tmp", "replay-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		lt, _, err := viewseeker.OpenLiveTable(filepath.Join(dir, "syn.wal"), w.table, 1)
		if err != nil {
			return err
		}
		defer lt.Close()
		states := make([]*viewseeker.Maintained, len(w.queries))
		for qi, p := range w.queries {
			if states[qi], err = viewseeker.Maintain(lt, p.sql("syn", synNames), viewseeker.Options{}); err != nil {
				return err
			}
		}
		mgr := session.NewManager(session.Config{})
		for i, cv := range firstN(w.convs, replayLive) {
			if err := lr.step("append", func() error {
				if _, err := lr.call("wal.append", func() error { _, err := lt.Append(w.batches[i+1]); return err }); err != nil {
					return err
				}
				for _, m := range states {
					if _, err := lr.call("live.advance", func() error { _, err := m.Advance(); return err }); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			var sk *viewseeker.Seeker
			if err := lr.step("create", func() error {
				_, err := lr.call("live.new_session", func() (err error) {
					sk, err = states[cv.group].NewSessionWith(viewseeker.Options{K: cv.k, Seed: cv.seed})
					return err
				})
				return err
			}); err != nil {
				return err
			}
			id := fmt.Sprintf("live-%d", i)
			mgr.Put(id, createRecord(id, "syn", cv), nil, sk, true)
			if err := lr.converse(mgr, nil, id, cv.steps); err != nil {
				return err
			}
			mgr.Delete(id)
		}
		if lr.on {
			for _, m := range states {
				lr.out["live.drift_rebuilds"] += float64(m.Stats().DriftRebuilds)
			}
		}
		return nil
	})
}
