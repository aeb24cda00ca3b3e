package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"viewseeker"
	"viewseeker/internal/active"
	"viewseeker/internal/core"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/obs"
	"viewseeker/internal/session"
	"viewseeker/internal/store"
	"viewseeker/internal/view"
)

// span is one timed call into a layer during the traced replay. Steps are
// the root spans (Parent -1); layer calls are their children; a layer's
// share of an enclosing call read from an existing counter (refinement
// inside a feedback) is a grandchild.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
}

func (s span) ms() float64 { return s.EndMs - s.StartMs }

// layerRun is the traced direct replay: it re-runs recorded session
// scripts by calling each layer's public functions in the order the server
// would, recording a span around every call. Each replay runs twice, once
// without spans, so the cost of recording them shows as overhead.
type layerRun struct {
	ctx     context.Context // carries reg, so existing layer counters count
	reg     *obs.Registry
	workers int
	epoch   time.Time
	on      bool // recording spans (the traced pass)
	spans   []span
	cur     int // the open step's span index
	reqs    int
	walls   [2]map[string][]float64 // step wall ms by kind: [untraced, traced]
	passN   [2]int                  // passes run: [untraced, traced]
	occBusy float64                 // par busy seconds inside create warm+compute
	occWall float64                 // wall seconds of create warm+compute
	out     map[string]float64      // per-layer metrics the replay produces
	samples []namedSample           // per-call values that are not span times
	hists   map[string]*obs.Histogram
}

func newLayerRun() *layerRun {
	reg := obs.NewRegistry()
	lr := &layerRun{
		ctx: obs.NewContext(context.Background(), reg, nil), reg: reg,
		workers: runtime.GOMAXPROCS(0), epoch: time.Now(), out: make(map[string]float64),
		spans: make([]span, 0, 1<<14), hists: make(map[string]*obs.Histogram),
	}
	lr.walls[0], lr.walls[1] = make(map[string][]float64), make(map[string][]float64)
	return lr
}

func (lr *layerRun) since(t time.Time) float64 { return float64(t.Sub(lr.epoch)) / 1e6 }

// passes runs fn untraced, traced, and untraced again, so the traced pass
// is compared with untraced ones on either side of it.
func (lr *layerRun) passes(fn func() error) error {
	for _, on := range []bool{false, true, false} {
		lr.on = on
		if err := fn(); err != nil {
			return err
		}
		if on {
			lr.passN[1]++
		} else {
			lr.passN[0]++
		}
	}
	return nil
}

// step runs one user-visible step as a root span. Traced, the step spans
// from its first layer call's start to its last call's end, so the
// tracer's own clock reads at the step boundary do not count against
// coverage; untraced, it is timed around fn.
func (lr *layerRun) step(kind string, fn func() error) error {
	lr.reqs++
	if !lr.on {
		start := time.Now()
		err := fn()
		lr.walls[0][kind] = append(lr.walls[0][kind], float64(time.Since(start))/1e6)
		return err
	}
	lr.spans = append(lr.spans, span{Name: "step." + kind, StartMs: -1, Parent: -1, Request: "replay-" + strconv.Itoa(lr.reqs)})
	lr.cur = len(lr.spans) - 1
	err := fn()
	lr.walls[1][kind] = append(lr.walls[1][kind], lr.spans[lr.cur].ms())
	return err
}

// call times one call into a layer; name is "<layer>.<operation>". It
// returns the span's index (-1 untraced) for counter-derived children.
func (lr *layerRun) call(name string, fn func() error) (int, error) {
	if !lr.on {
		return -1, fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	st := &lr.spans[lr.cur]
	if st.StartMs < 0 {
		st.StartMs = lr.since(start)
	}
	st.EndMs = lr.since(end)
	lr.spans = append(lr.spans, span{Name: name, StartMs: lr.since(start), EndMs: st.EndMs,
		Parent: lr.cur, Request: st.Request})
	return len(lr.spans) - 1, err
}

// child attaches a counter-derived share of span parent: ms spent in the
// named inner layer, placed at the start of the parent.
func (lr *layerRun) child(parent int, name string, ms float64) {
	if parent < 0 || ms <= 0 {
		return
	}
	p := lr.spans[parent]
	lr.spans = append(lr.spans, span{Name: name, StartMs: p.StartMs, EndMs: p.StartMs + ms, Parent: parent, Request: p.Request})
}

// histSum reads the running sum of an existing duration histogram; it is
// cheap enough to call between the calls of a step.
func (lr *layerRun) histSum(name string) float64 {
	h := lr.hists[name]
	if h == nil {
		h = lr.reg.Histogram(name, obs.DurationBuckets)
		lr.hists[name] = h
	}
	return h.Sum()
}

// spaceKey is what the server's cache lookups address an exact or sampled
// session by.
func spaceKey(refHash, query string, alpha float64, targetHash string) string {
	reg := feature.StandardRegistry()
	cfg := view.SpaceConfig{}.Normalized()
	if alpha <= 0 || alpha >= 1 {
		alpha = 1
	}
	return store.Key{RefHash: refHash, Query: query, TargetHash: targetHash, Alpha: alpha,
		Features: reg.Names(), Aggs: cfg.Aggs, BinCounts: cfg.BinCounts, EqualDepth: cfg.EqualDepth}.Fingerprint()
}

func newCore(m *feature.Matrix, cv *conv, refine bool) (*core.Seeker, error) {
	return core.NewSeeker(m, core.Config{K: cv.k, Strategy: &active.Uncertainty{}, ColdStartSeed: cv.seed}, refine)
}

// coldCreate replays an exact cache-missing create as viewseeker.NewCtx
// runs it: query-keyed probe, exploration query, target hash, content-keyed
// probe, generator, layout scans, features, both cache fills.
func (lr *layerRun) coldCreate(ref *dataset.Table, refHash string, cache *store.Cache, cv *conv) error {
	var target *dataset.Table
	var gen *view.Generator
	var matrix *feature.Matrix
	var targetHash string
	var encoded bytes.Buffer
	reg := feature.StandardRegistry()
	qfp := spaceKey(refHash, cv.query, 1, "")
	steps := []struct {
		name string
		fn   func() error
	}{
		{"store.cache_get", func() error { cache.Get(qfp); return nil }},
		{"sql.query", func() (err error) {
			target, err = viewseeker.Query(ref, cv.query)
			if err == nil {
				target.Name = ref.Name + "_dq"
			}
			return err
		}},
		{"store.hash", func() error { targetHash = store.HashTable(target); return nil }},
		{"store.cache_get", func() error { cache.Get(spaceKey(refHash, "", 1, targetHash)); return nil }},
		{"view.generator", func() (err error) { gen, err = view.NewGenerator(ref, target, view.SpaceConfig{}); return err }},
		{"view.warm", func() error { return gen.WarmCtx(lr.ctx, lr.workers) }},
		{"feature.compute", func() (err error) { matrix, err = feature.ComputeWorkersCtx(lr.ctx, gen, reg, lr.workers); return err }},
		{"store.cache_put", func() error {
			return cache.Put(spaceKey(refHash, "", 1, targetHash), &store.OfflineResult{
				Specs: matrix.Specs, Names: matrix.Names, Rows: matrix.Rows, Exact: matrix.Exact})
		}},
		{"core.new_seeker", func() error { _, err := newCore(matrix, cv, false); return err }},
		{"dataset.encode", func() error { return dataset.WriteBinary(target, &encoded) }},
		{"store.cache_put", func() error {
			return cache.Put(qfp, &store.OfflineResult{Specs: matrix.Specs, Names: matrix.Names,
				Rows: matrix.Rows, Exact: matrix.Exact, Target: encoded.Bytes()})
		}},
	}
	return lr.step("create", func() error {
		var busy0 float64
		var scanStart time.Time
		for _, s := range steps {
			if s.name == "view.warm" {
				busy0, scanStart = lr.histSum("viewseeker_par_item_seconds"), time.Now()
			}
			if _, err := lr.call(s.name, s.fn); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if s.name == "feature.compute" && lr.on {
				lr.occBusy += lr.histSum("viewseeker_par_item_seconds") - busy0
				lr.occWall += time.Since(scanStart).Seconds()
			}
			if s.name == "dataset.encode" && lr.on {
				lr.add("dataset.target_bytes", float64(encoded.Len()))
				lr.add("sql.rows_examined_per_row", float64(ref.NumRows())/float64(target.NumRows()))
			}
		}
		return nil
	})
}

// warmCreate replays a query-keyed cache hit on a sampled session: decode
// the cached target, build the generator refinement needs, rebuild the
// matrix, start the estimator, journal the create.
func (lr *layerRun) warmCreate(ref *dataset.Table, refHash string, cache *store.Cache, j *store.Journal, id string, cv *conv) error {
	var res *store.OfflineResult
	var target *dataset.Table
	var gen *view.Generator
	var matrix *feature.Matrix
	return lr.step("create", func() error {
		calls := []struct {
			name string
			fn   func() error
		}{
			{"store.cache_get", func() error {
				var ok bool
				if res, ok = cache.Get(spaceKey(refHash, cv.query, cv.alpha, "")); !ok {
					return fmt.Errorf("query-keyed entry missing")
				}
				return nil
			}},
			{"dataset.decode", func() (err error) { target, err = dataset.ReadBinary(bytes.NewReader(res.Target)); return err }},
			{"view.generator", func() (err error) { gen, err = view.NewGenerator(ref, target, view.SpaceConfig{}); return err }},
			{"feature.rebuild", func() (err error) {
				matrix, err = feature.Rebuild(gen, feature.StandardRegistry(), res.Specs, res.Rows, res.Exact)
				return err
			}},
			{"core.new_seeker", func() error { _, err := newCore(matrix, cv, true); return err }},
			{"store.journal_append", func() error {
				return j.Append(createRecord(id, ref.Name, cv))
			}},
		}
		for _, c := range calls {
			if _, err := lr.call(c.name, c.fn); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		if lr.on {
			lr.add("dataset.target_bytes", float64(len(res.Target)))
		}
		return nil
	})
}

// converse replays a session's labelling script and final top against the
// session held by mgr: each step acquires the session as the server's
// handlers do, selects, labels (refining and refitting), journals the
// label, and renders the top-k with its SQL.
func (lr *layerRun) converse(mgr *session.Manager, j *store.Journal, id string, steps []feedbackStep) error {
	for _, fb := range steps {
		if err := lr.step("feedback", func() error {
			return lr.withSession(mgr, id, func(sk *viewseeker.Seeker, hd *session.Handle) error {
				if _, err := lr.call("active.select", func() error { _, err := sk.NextViewsCtx(lr.ctx); return err }); err != nil {
					return err
				}
				refine0 := lr.histSum("viewseeker_optimize_refine_seconds")
				idx, err := lr.call("core.feedback", func() error { return sk.FeedbackCtx(lr.ctx, fb.View, fb.Label) })
				if err != nil {
					return err
				}
				lr.child(idx, "optimize.refine", (lr.histSum("viewseeker_optimize_refine_seconds")-refine0)*1e3)
				if _, err := lr.call("session.record", func() error { hd.RecordFeedback(fb.View, fb.Label); return nil }); err != nil {
					return err
				}
				if j != nil {
					if _, err := lr.call("store.journal_append", func() error {
						return j.Append(store.Record{Op: store.OpFeedback, Session: id, View: fb.View, Label: fb.Label})
					}); err != nil {
						return err
					}
				}
				return lr.topK(sk)
			})
		}); err != nil {
			return err
		}
	}
	return lr.step("top", func() error {
		return lr.withSession(mgr, id, func(sk *viewseeker.Seeker, _ *session.Handle) error { return lr.topK(sk) })
	})
}

func (lr *layerRun) withSession(mgr *session.Manager, id string, fn func(*viewseeker.Seeker, *session.Handle) error) error {
	var hd *session.Handle
	if _, err := lr.call("session.acquire", func() (err error) { hd, err = mgr.Acquire(lr.ctx, id); return err }); err != nil {
		return err
	}
	err := fn(hd.Seeker(), hd)
	_, _ = lr.call("session.release", func() error { hd.Release(); return nil })
	return err
}

// topK ranks the views and renders each one's SQL, as the server's top
// and feedback replies do.
func (lr *layerRun) topK(sk *viewseeker.Seeker) error {
	var top []viewseeker.View
	if _, err := lr.call("core.topk", func() error { top = sk.TopK(); return nil }); err != nil {
		return err
	}
	_, err := lr.call("view.sql", func() error {
		for _, v := range top {
			if _, err := sk.SQL(v.Index); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// revisit evicts every idle session and times the first acquire of id:
// the rehydration a revisit pays.
func (lr *layerRun) revisit(mgr *session.Manager, id string) error {
	mgr.EvictIdle()
	return lr.step("revisit", func() error {
		var hd *session.Handle
		_, err := lr.call("session.rehydrate", func() (err error) { hd, err = mgr.Acquire(lr.ctx, id); return err })
		if err != nil {
			return err
		}
		_, _ = lr.call("session.release", func() error { hd.Release(); return nil })
		return nil
	})
}

// add collects a per-call sample for a metric computed from the replay.
func (lr *layerRun) add(name string, v float64) {
	lr.samples = append(lr.samples, namedSample{name, v})
}

type namedSample struct {
	name string
	v    float64
}

// selfMs returns every traced span's self time by name: its duration less
// what its children cover.
func (lr *layerRun) selfMs() map[string][]float64 {
	childMs := make([]float64, len(lr.spans))
	for _, s := range lr.spans {
		if s.Parent >= 0 {
			childMs[s.Parent] += s.ms()
		}
	}
	out := make(map[string][]float64)
	for i, s := range lr.spans {
		out[s.Name] = append(out[s.Name], s.ms()-childMs[i])
	}
	return out
}

// report derives the replay's per-layer metrics and prints the self-time
// breakdown and each step's span coverage.
func (lr *layerRun) report(p printer) {
	self := lr.selfMs()
	med := func(name string) float64 { return median(self[name]) }
	for name, metric := range map[string]string{
		"store.hash": "store.hash_ms", "store.cache_put": "store.cache_put_ms", "store.cache_get": "store.cache_get_ms",
		"store.journal_append": "store.journal_append_ms", "dataset.encode": "dataset.encode_ms",
		"dataset.decode": "dataset.decode_ms", "sql.query": "sql.query_ms", "view.generator": "view.generator_ms",
		"view.warm": "view.warm_ms", "view.sql": "view.sql_ms", "feature.compute": "feature.compute_ms",
		"feature.rebuild": "feature.rebuild_ms", "core.new_seeker": "core.new_seeker_ms",
		"core.feedback": "core.feedback_ms", "core.topk": "core.topk_ms", "active.select": "active.select_ms",
		"session.acquire": "session.acquire_ms", "wal.append": "wal.append_ms", "live.advance": "live.advance_ms",
		"live.new_session": "live.new_session_ms", "session.rehydrate": "session.rehydrate_ms_p50",
	} {
		lr.out[metric] = med(name)
	}
	// Refinement time per feedback, zero on exact sessions.
	lr.out["optimize.refine_ms"] = ratio(sum(self["optimize.refine"]), float64(len(self["core.feedback"])))
	lr.out["dataset.target_bytes"] = medianOf(lr.samples, "dataset.target_bytes")
	lr.out["sql.rows_examined_per_row"] = medianOf(lr.samples, "sql.rows_examined_per_row")
	// The scan counter runs in every pass; spans exist only in the traced one.
	lr.out["view.warm_scans"] = ratio(float64(lr.reg.Counter("viewseeker_view_warm_scans_total").Value()),
		float64((lr.passN[0]+lr.passN[1])*len(self["view.warm"])))
	lr.out["par.occupancy"] = ratio(lr.occBusy, lr.occWall*float64(lr.workers))
	p.note("par.occupancy base: %.3f busy s over %.3f s of create scans × %d workers", lr.occBusy, lr.occWall, lr.workers)

	// Self time by layer, and each step kind's span coverage.
	byLayer := make(map[string]float64)
	total := 0.0
	for name, xs := range self {
		if strings.HasPrefix(name, "step.") {
			continue
		}
		byLayer[strings.SplitN(name, ".", 2)[0]] += sum(xs)
	}
	stepMs := make(map[string]float64)
	covered := make(map[string]float64)
	counts := make(map[string]int)
	for _, s := range lr.spans {
		if s.Parent >= 0 {
			if lr.spans[s.Parent].Parent < 0 {
				covered[lr.spans[s.Parent].Name] += s.ms()
			}
			continue
		}
		stepMs[s.Name] += s.ms()
		counts[s.Name]++
		total += s.ms()
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	for _, l := range layers {
		p.note("self time %-8s %10.3f ms  %5.1f%% of traced step time", l, byLayer[l], 100*ratio(byLayer[l], total))
	}
	coverage := 1.0
	kinds := make([]string, 0, len(stepMs))
	for k := range stepMs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		// A step's direct children are sequential layer calls, so their sum
		// is the covered share.
		c := ratio(covered[k], stepMs[k])
		if k != "step.revisit" && c < coverage {
			coverage = c
		}
		p.note("coverage %-14s %.4f over %d steps; uncovered remainder %.4f ms per step", k, c, counts[k],
			(stepMs[k]-covered[k])/float64(counts[k]))
	}
	lr.out["trace.coverage"] = coverage
	// Overhead per step kind compares median steps, traced against
	// untraced; the report is the median over kinds, so one kind's disk
	// noise (fsync in append) does not stand for the tracer's cost.
	var overheads []float64
	for _, k := range kinds {
		kind := strings.TrimPrefix(k, "step.")
		o := ratio(median(lr.walls[1][kind]), median(lr.walls[0][kind])) - 1
		overheads = append(overheads, o)
		p.note("trace overhead %-14s %+.4f (median step %.4f ms traced, %.4f ms untraced)", k, o,
			median(lr.walls[1][kind]), median(lr.walls[0][kind]))
	}
	lr.out["trace.overhead_ratio"] = median(overheads)
}

func medianOf(samples []namedSample, name string) float64 {
	var xs []float64
	for _, s := range samples {
		if s.name == name {
			xs = append(xs, s.v)
		}
	}
	return median(xs)
}

// dump writes the traced spans as JSON lines under .bench_build.
func (lr *layerRun) dump(workload string, seed int64) (string, error) {
	path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", workload, seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range lr.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
