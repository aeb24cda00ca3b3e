package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/server"
)

const (
	liveBatchRows = 1000
	// livePeriod is the writer's open-loop schedule: one batch every
	// 200 ms, well above a batch's append cost so no backlog builds.
	livePeriod = 200 * time.Millisecond
)

// synLive is writes beside reads: SYN 1M hosted as a WAL-backed live
// table, an open-loop writer appending non-drifting batches, and a
// closed-loop reader opening exact sessions served from the maintained
// state.
type synLive struct {
	base
	seed    int64
	table   *dataset.Table // the base snapshot
	lt      *viewseeker.LiveTable
	queries []pred
	batches [][][]dataset.Value
	bodies  [][]byte // batches as append request bodies

	mu       sync.Mutex
	acked    int           // rows acknowledged by the append route
	prefixes []map[int]int // per query: valid target row counts → batches
	convs    []*conv       // the first reader sessions, replayed by the traced run
	created  [][2]int      // every reader session's query and targetRows
}

// livePreds are the reader's two row-local queries: a hypercube of ~1% and
// a slab of ~3%, both jittered by the seed.
func livePreds(seed int64) []pred {
	rng := rand.New(rand.NewSource(seed * 104729))
	a := round6(0.1 * (1 + 0.05*(rng.Float64()-0.5)))
	b := round6(0.03 * (1 + 0.05*(rng.Float64()-0.5)))
	return []pred{{cols: []int{0, 1}, thr: []float64{a, a}}, {cols: []int{2}, thr: []float64{b}}}
}

// liveBatch generates one append batch: dimensions inside the base data's
// range and measures from the same distribution, so the pinned bin
// layouts never drift.
func liveBatch(rng *rand.Rand) [][]dataset.Value {
	rows := make([][]dataset.Value, liveBatchRows)
	for i := range rows {
		row := make([]dataset.Value, len(synNames))
		for c := 0; c < 5; c++ {
			row[c] = dataset.Float(0.001 + 0.998*rng.Float64())
		}
		for c := 5; c < 10; c++ {
			row[c] = dataset.Float(100 * rng.Float64())
		}
		rows[i] = row
	}
	return rows
}

func appendBody(rows [][]dataset.Value) ([]byte, error) {
	cells := make([][]float64, len(rows))
	for i, row := range rows {
		cells[i] = make([]float64, len(row))
		for c, v := range row {
			cells[i][c] = v.F
		}
	}
	return json.Marshal(map[string]any{"rows": cells})
}

func (w *synLive) setup(seed int64, traced bool) error {
	w.seed = seed
	w.table = dataset.GenerateSYN(dataset.SYNConfig{Rows: synRows, Seed: seed})
	w.queries = livePreds(seed)
	// Enough batches for the longest run --seconds allows, plus the
	// warm-up batch; each is counted against both queries up front.
	rng := rand.New(rand.NewSource(seed*15485863 + 1))
	n := int(maxSeconds*time.Second/livePeriod) + 2
	w.batches = make([][][]dataset.Value, n)
	w.bodies = make([][]byte, n)
	for i := range w.batches {
		w.batches[i] = liveBatch(rng)
		body, err := appendBody(w.batches[i])
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	w.prefixes = make([]map[int]int, len(w.queries))
	for qi, p := range w.queries {
		count := countMatches(w.table, p)
		w.prefixes[qi] = map[int]int{count: 0}
		row := make([]float64, len(synNames))
		for b, batch := range w.batches {
			for _, r := range batch {
				for c, v := range r {
					row[c] = v.F
				}
				if p.match(row) {
					count++
				}
			}
			w.prefixes[qi][count] = b + 1
		}
	}
	if err := w.scratchDir(); err != nil {
		return err
	}
	lt, rec, err := viewseeker.OpenLiveTable(filepath.Join(w.dir, "syn.wal"), w.table, 1)
	if err != nil {
		return err
	}
	w.lt = lt
	w.closers = append(w.closers, func() { lt.Close() })
	srv := server.NewWithOptions(server.Options{Logger: quietLogger()})
	srv.HostLive(lt, rec)
	w.serve(srv, traced)
	// Warm-up: the first exact session per query builds its maintained
	// state; one append exercises the WAL and the maintainer.
	r := &runner{c: w.c, rec: newRecorder()}
	for qi := range w.queries {
		cv := w.newConv(qi, int64(qi))
		if !r.create("syn", cv) || !r.remove(cv) {
			_, _, _, fails := r.rec.counts()
			return fmt.Errorf("syn_live_append warm-up failed: %v", fails)
		}
	}
	if err := w.append(r, 0, time.Now()); err != nil {
		return fmt.Errorf("syn_live_append warm-up append: %w", err)
	}
	return nil
}

func (w *synLive) newConv(qi int, seed int64) *conv {
	return &conv{pred: w.queries[qi], query: w.queries[qi].sql("syn", synNames), group: qi, k: 5, seed: seed}
}

// append posts batch b, due at due, then waits until /healthz shows the
// maintainer caught up.
func (w *synLive) append(r *runner, b int, due time.Time) error {
	rp, err := r.c.do("POST", "/api/tables/syn/append", w.bodies[b])
	if err == nil {
		w.mu.Lock()
		w.acked += liveBatchRows
		w.mu.Unlock()
		st := step{rtt: time.Since(due), handler: rp.handler, bytes: len(rp.body)}
		err = r.finish("append", st, false)
	}
	r.rec.attempt(err)
	if err != nil {
		return err
	}
	acked := time.Now()
	err = w.waitCaughtUp(r)
	if err == nil {
		r.rec.add("maintain_lag", float64(time.Since(acked))/1e6)
	}
	r.rec.attempt(err)
	return err
}

// waitCaughtUp polls /healthz until every maintained state is current.
func (w *synLive) waitCaughtUp(r *runner) error {
	limit := time.Now().Add(30 * time.Second)
	for {
		var h health
		if _, err := r.c.doJSON("GET", "/healthz", nil, &h); err != nil {
			return err
		}
		if len(h.Live) == 1 && h.Live[0].MaintainerLag == 0 {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("maintainer still %d versions behind after 30 s", h.Live[0].MaintainerLag)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (w *synLive) measure(r *runner) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: open loop, timed from each batch's due time
		defer wg.Done()
		start := time.Now()
		for b := 1; b < len(w.bodies); b++ {
			due := start.Add(time.Duration(b-1) * livePeriod)
			if !due.Before(r.deadline) {
				return
			}
			time.Sleep(time.Until(due))
			r.rec.add("append_late", float64(time.Since(due))/1e6)
			if w.append(r, b, due) != nil {
				return
			}
		}
	}()
	go func() { // reader: closed loop of exact sessions
		defer wg.Done()
		for i := 0; time.Now().Before(r.deadline); i++ {
			cv := w.newConv(i%2, int64(mix64(uint64(w.seed)+uint64(i))>>1))
			if w.script(r, cv) {
				r.rec.add("session", 1)
				w.mu.Lock()
				w.created = append(w.created, [2]int{cv.group, cv.targetRows})
				if len(w.convs) < replayLive {
					w.convs = append(w.convs, cv)
				}
				w.mu.Unlock()
			}
		}
	}()
	wg.Wait()
}

// script runs one reader session: create → 3 feedback → top, then deletes
// it (sessions on a live table are pinned resident until deleted).
func (w *synLive) script(r *runner, cv *conv) bool {
	if !r.create("syn", cv) {
		return false
	}
	for j := 0; j < 3; j++ {
		if _, ok := r.iterate(cv, "feedback"); !ok {
			return false
		}
	}
	if !r.top(cv) || (cv.sampled && !r.weights(cv)) {
		return false
	}
	return cv.sampled || r.remove(cv)
}

func (w *synLive) check(r *runner) {
	for _, c := range w.created {
		var err error
		if _, ok := w.prefixes[c[0]][c[1]]; !ok {
			err = fmt.Errorf("syn_live_append %q: targetRows %d matches no acknowledged table version",
				w.queries[c[0]].sql("syn", synNames), c[1])
		}
		r.rec.check(err)
	}
	// The final version holds the base plus every acknowledged row.
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	_, err := r.c.doJSON("GET", "/api/tables", nil, &tables)
	if err == nil && (len(tables) != 1 || tables[0].Rows != w.table.NumRows()+w.acked) {
		err = fmt.Errorf("syn_live_append: final table %+v, want %d base + %d acknowledged rows", tables, w.table.NumRows(), w.acked)
	}
	r.rec.check(err)
	// A fresh session on the final version equals a library session built
	// cold on the final snapshot.
	if err := w.waitCaughtUp(r); err != nil {
		r.rec.check(err)
		return
	}
	cv := w.newConv(0, w.seed)
	cv.sampled = true
	if w.script(r, cv) {
		r.rec.check(replay(w.lt.Current(), cv))
	}
}
