package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/server"
	"viewseeker/internal/store"
)

// workload is one named traffic mix. setup builds the server and its data
// from the seed (and is what setup_s times); measure drives it until the
// runner's deadline; check runs the output checks; layers is the traced
// direct replay that produces the per-layer metrics.
type workload interface {
	setup(seed int64, traced bool) error
	measure(r *runner)
	check(r *runner)
	layers(lr *layerRun) error
	env() *base
}

var workloads = map[string]func() workload{
	"syn_cold":         func() workload { return &synCold{} },
	"diab_warm_budget": func() workload { return &diabWarm{} },
	"syn_live_append":  func() workload { return &synLive{} },
}

// base is the part of a set-up workload every kind shares: the server
// under test, its loopback listener, the client, and a scratch directory
// for the journal or WAL.
type base struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client
	dir string
	// extra release steps (journal, live table), run before the directory
	// is removed.
	closers []func()
}

func (b *base) env() *base { return b }

func (b *base) serve(srv *server.Server, traced bool) {
	b.srv = srv
	b.ts, b.c = startServer(srv.Handler(), traced)
}

func (b *base) teardown() {
	if b.c != nil {
		b.c.close()
	}
	if b.ts != nil {
		b.ts.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// scratchDir makes a private directory under the working directory's
// .bench_build, which is where every file the benchmark writes lives.
func (b *base) scratchDir() error {
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build/tmp", "run-")
	b.dir = dir
	return err
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

var synNames = []string{"d1", "d2", "d3", "d4", "d5", "m1", "m2", "m3", "m4", "m5"}

const synRows = 1_000_000

// ---------------------------------------------------------------- syn_cold

// synCold is the cold offline phase at paper scale: SYN 1M, exact, one
// closed-loop client, every create a fresh hypercube predicate.
type synCold struct {
	base
	seed  int64
	table *dataset.Table
	seen  map[string]bool
	convs []*conv
}

// synSelectivity is session i's selectivity in the cold schedule:
// log-uniform from the paper's 0.5% up to 25%, placed by a van der Corput
// sequence rotated by the seed, so every stretch of consecutive sessions
// (a run's whole schedule, or the sessions whose targets the cache still
// holds at its end) covers the range evenly.
func synSelectivity(seed int64, i int) float64 {
	u := float64(mix64(uint64(seed))>>11) / (1 << 53)
	for f, n := 0.5, i+1; n > 0; f, n = f/2, n/2 {
		u += f * float64(n&1)
	}
	return 0.005 * math.Pow(50, u-math.Floor(u))
}

// coldPred returns the predicate d1 < t AND d2 < t of selectivity sel,
// nudged so no two sessions of a run share query text.
func (w *synCold) coldPred(sel float64) pred {
	t := round6(math.Sqrt(sel))
	for {
		p := pred{cols: []int{0, 1}, thr: []float64{t, t}}
		q := p.sql("syn", synNames)
		if !w.seen[q] {
			w.seen[q] = true
			return p
		}
		t = round6(t + 1e-6)
	}
}

func (w *synCold) setup(seed int64, traced bool) error {
	w.seed = seed
	w.seen = make(map[string]bool)
	w.table = dataset.GenerateSYN(dataset.SYNConfig{Rows: synRows, Seed: seed})
	w.serve(server.NewWithOptions(server.Options{Logger: quietLogger()}, w.table), traced)
	// Warm-up: one full session on a predicate outside the schedule.
	r := &runner{c: w.c, rec: newRecorder()}
	cv := &conv{pred: w.coldPred(0.01), k: 5, seed: seed}
	cv.query = cv.pred.sql("syn", synNames)
	if !w.script(r, cv) {
		_, _, _, fails := r.rec.counts()
		return fmt.Errorf("syn_cold warm-up failed: %v", fails)
	}
	return nil
}

// script runs one cold session: create → 3 feedback → top → delete.
func (w *synCold) script(r *runner, cv *conv) bool {
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
	return r.remove(cv)
}

func (w *synCold) measure(r *runner) {
	for i := 0; time.Now().Before(r.deadline); i++ {
		p := w.coldPred(synSelectivity(w.seed, i))
		cv := &conv{pred: p, query: p.sql("syn", synNames), k: 5,
			seed: int64(mix64(uint64(w.seed)+uint64(i)) >> 1), sampled: (uint64(w.seed)+uint64(i))%25 == 0}
		if w.script(r, cv) {
			r.rec.add("session", 1)
			w.convs = append(w.convs, cv)
		}
	}
}

func (w *synCold) check(r *runner) {
	for _, cv := range w.convs {
		want := countMatches(w.table, cv.pred)
		var err error
		if cv.targetRows != want {
			err = fmt.Errorf("syn_cold %q: targetRows %d, benchmark counts %d", cv.query, cv.targetRows, want)
		}
		r.rec.check(err)
		if cv.sampled {
			r.rec.check(replay(w.table, cv))
		}
	}
}

// --------------------------------------------------------- diab_warm_budget

// diabQueries are the four fixed exploration queries, from the canonical
// DIAB subset (~0.5%) up to ~20% of the rows.
var diabQueries = []string{
	dataset.DIABQuery,
	"SELECT * FROM diab WHERE diag_group = 'diabetes'",
	"SELECT * FROM diab WHERE age_group = '[90-100)'",
	"SELECT * FROM diab WHERE race = 'AfricanAmerican'",
}

const (
	diabRows     = 100_000
	diabAlpha    = 0.1
	diabResident = 12 // sessions the budget holds resident
	diabClients  = 2
)

// diabWarm is the interactive loop under a memory budget: α-sampled DIAB
// sessions served from the offline cache, most of the population evicted
// to the journal and rehydrated on revisit.
type diabWarm struct {
	base
	seed       int64
	table      *dataset.Table
	want       []int // benchmark-counted target rows per query
	perSession int64
	budget     int64

	mu      sync.Mutex
	next    int
	convs   []*conv // completed sessions, in completion order
	pending []*conv // the completed sessions not yet revisited: a suffix of convs
}

func (w *diabWarm) setup(seed int64, traced bool) error {
	w.seed = seed
	w.table = dataset.GenerateDIAB(dataset.DIABConfig{Rows: diabRows, Seed: seed})
	w.want = make([]int, len(diabQueries))
	for i, q := range diabQueries {
		w.want[i] = countDIAB(w.table, q)
	}
	if err := w.scratchDir(); err != nil {
		return err
	}
	// Probe: one session per query on an unbudgeted server gives the
	// accounted per-session cost (as cmd/bench -serve sizes its budget);
	// its cache, filled by those cold creates, is shared with the server
	// under test so every timed create is a cache hit.
	cache := store.NewCache(0)
	probe := server.NewWithOptions(server.Options{Logger: quietLogger(), Cache: cache}, w.table)
	pts, pc := startServer(probe.Handler(), false)
	for _, q := range diabQueries {
		if _, err := pc.do("POST", "/api/sessions", createReq{Table: "diab", Query: q, K: 5, Alpha: diabAlpha, Seed: seed}); err != nil {
			pts.Close()
			return fmt.Errorf("diab probe: %w", err)
		}
	}
	m, err := pc.metricz()
	pc.close()
	pts.Close()
	probe.Close()
	if err != nil {
		return err
	}
	w.perSession = int64(m["viewseeker_session_resident_bytes"]) / int64(len(diabQueries))
	w.budget = w.perSession * diabResident

	j, err := store.OpenJournal(filepath.Join(w.dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	w.closers = append(w.closers, func() { j.Close() })
	w.serve(server.NewWithOptions(server.Options{
		Logger: quietLogger(), Journal: j, SessionBudgetBytes: w.budget, Cache: cache,
	}, w.table), traced)
	// Warm-up: one session per query through the server under test.
	r := &runner{c: w.c, rec: newRecorder()}
	for i, q := range diabQueries {
		cv := &conv{query: q, k: 5, alpha: diabAlpha, seed: seed + int64(i)}
		if !r.create("diab", cv) {
			_, _, _, fails := r.rec.counts()
			return fmt.Errorf("diab warm-up failed: %v", fails)
		}
		if _, ok := r.iterate(cv, ""); !ok {
			_, _, _, fails := r.rec.counts()
			return fmt.Errorf("diab warm-up failed: %v", fails)
		}
	}
	return nil
}

func (w *diabWarm) measure(r *runner) {
	var wg sync.WaitGroup
	for g := 0; g < diabClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(r.deadline) {
				w.newSession(r)
				if cv := w.revisitCandidate(); cv != nil && time.Now().Before(r.deadline) {
					w.revisit(r, cv)
				}
			}
		}()
	}
	wg.Wait()
}

// newSession runs create → 8 feedback → top on the next scheduled query.
func (w *diabWarm) newSession(r *runner) {
	w.mu.Lock()
	i := w.next
	w.next++
	w.mu.Unlock()
	qi := int(mix64(uint64(w.seed)*31+uint64(i)) % uint64(len(diabQueries)))
	cv := &conv{query: diabQueries[qi], group: qi, k: 5, alpha: diabAlpha,
		seed: int64(mix64(uint64(w.seed)+uint64(i)) >> 1), sampled: i%50 == 3}
	if !r.create("diab", cv) {
		return
	}
	for j := 0; j < 8; j++ {
		if _, ok := r.iterate(cv, "feedback"); !ok {
			return
		}
	}
	if !r.top(cv) || (cv.sampled && !r.weights(cv)) {
		return
	}
	r.rec.add("session", 1)
	w.mu.Lock()
	w.pending = append(w.pending, cv)
	w.convs = append(w.convs, cv)
	w.mu.Unlock()
}

// revisitCandidate pops the oldest unrevisited session once enough newer
// sessions (three budgets' worth) have completed to have evicted it.
func (w *diabWarm) revisitCandidate() *conv {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) <= 3*diabResident {
		return nil
	}
	cv := w.pending[0]
	w.pending = w.pending[1:]
	return cv
}

// revisit sends 2 feedback and a top to an evicted session; the first
// request's round trip is the revisit latency.
func (w *diabWarm) revisit(r *runner, cv *conv) {
	first, ok := r.iterate(cv, "")
	if !ok {
		return
	}
	r.rec.add("revisit", float64(first)/1e6)
	if _, ok := r.iterate(cv, "feedback"); !ok {
		return
	}
	if !r.top(cv) || (cv.sampled && !r.weights(cv)) {
		return
	}
	w.mu.Lock()
	cv.revisited = true
	w.mu.Unlock()
}

func (w *diabWarm) check(r *runner) {
	revisited := 0
	for _, cv := range w.convs {
		var err error
		if want := w.want[cv.group]; cv.targetRows != want {
			err = fmt.Errorf("diab %q: targetRows %d, benchmark counts %d", cv.query, cv.targetRows, want)
		}
		r.rec.check(err)
		if cv.sampled {
			// A revisited session must answer like its unevicted twin: the
			// replay is that twin, built fresh and never evicted.
			r.rec.check(replay(w.table, cv))
			if cv.revisited {
				revisited++
			}
		}
	}
	if revisited == 0 {
		r.rec.check(fmt.Errorf("diab: no sampled session was revisited, so eviction was never checked"))
	}
}

// countDIAB counts the rows matching one of the diabQueries by reading the
// string columns directly.
func countDIAB(t *dataset.Table, q string) int {
	conds := map[string][][2]string{
		diabQueries[0]: {{"diag_group", "diabetes"}, {"age_group", "[90-100)"}},
		diabQueries[1]: {{"diag_group", "diabetes"}},
		diabQueries[2]: {{"age_group", "[90-100)"}},
		diabQueries[3]: {{"race", "AfricanAmerican"}},
	}[q]
	n := 0
	for r := 0; r < t.NumRows(); r++ {
		ok := true
		for _, c := range conds {
			if t.Column(c[0]).Strs[r] != c[1] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}
