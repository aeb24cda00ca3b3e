// Command e2ebench is ViewSeeker's end-to-end benchmark. It starts the
// real internal/server handler in-process, serves it over loopback HTTP,
// and drives one of three workloads from the same process:
//
//   - syn_cold: cold session creates on SYN 1M (exact, unbudgeted);
//   - diab_warm_budget: α = 0.1 DIAB 100k sessions served from the offline
//     cache under a session memory budget, with revisits of evicted
//     sessions;
//   - syn_live_append: SYN 1M as a WAL-backed live table, an open-loop
//     writer appending beside a closed-loop reader.
//
// Every run checks the server's outputs (target row counts it counts
// itself, byte-identical replays through the library) and exits non-zero
// when a check fails. The last line of standard output is one JSON object
// with the run's metrics: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced direct replay of the same sessions.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload syn_cold --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload syn_cold --seed 1 --seconds 30 --repeat 5
//
// --repeat N runs N times with seeds seed … seed+N-1 and prints each
// metric's median and quartiles across the runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

const (
	maxSeconds = 60
	// setupReps is how often a run builds its set-up; setup_s is the median.
	setupReps = 3
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the server
// waits for or pays, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"create_ms_p50", "ms"}, {"create_ms_p90", "ms"},
	{"feedback_ms_p50", "ms"}, {"feedback_ms_p90", "ms"},
	{"top_ms_p50", "ms"},
	{"sessions_per_s", "1/s"},
	{"session_bytes", "bytes"},
	{"retained_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. The first group are
// end-to-end metrics that exist on one workload only (0 elsewhere).
var perLayer = []metricDef{
	{"revisit_ms_p50", "ms"}, {"revisit_ms_p90", "ms"},
	{"append_ms_p50", "ms"}, {"append_ms_p90", "ms"},
	{"maintain_lag_ms_p50", "ms"},
	{"failed_ratio", "ratio"},
	{"server.handler_ms.create", "ms"}, {"server.handler_ms.feedback", "ms"},
	{"server.handler_ms.top", "ms"}, {"server.handler_ms.append", "ms"},
	{"server.wire_ms.create", "ms"}, {"server.wire_ms.feedback", "ms"},
	{"server.wire_ms.top", "ms"}, {"server.wire_ms.append", "ms"},
	{"server.response_bytes.create", "bytes"}, {"server.response_bytes.feedback", "bytes"},
	{"server.response_bytes.top", "bytes"}, {"server.response_bytes.append", "bytes"},
	{"session.acquire_ms", "ms"}, {"session.rehydrate_ms_p50", "ms"},
	{"session.evictions", "count"}, {"session.rehydrations", "count"}, {"session.shed", "count"},
	{"store.hash_ms", "ms"}, {"store.cache_put_ms", "ms"}, {"store.cache_get_ms", "ms"},
	{"store.cache_hit_ratio", "ratio"}, {"store.journal_append_ms", "ms"}, {"store.journal_bytes_per_op", "bytes"},
	{"dataset.encode_ms", "ms"}, {"dataset.decode_ms", "ms"}, {"dataset.target_bytes", "bytes"},
	{"sql.query_ms", "ms"}, {"sql.rows_examined_per_row", "ratio"},
	{"view.generator_ms", "ms"}, {"view.warm_ms", "ms"}, {"view.warm_scans", "count"}, {"view.sql_ms", "ms"},
	{"feature.compute_ms", "ms"}, {"feature.rebuild_ms", "ms"},
	{"par.occupancy", "ratio"},
	{"core.new_seeker_ms", "ms"}, {"core.feedback_ms", "ms"}, {"core.topk_ms", "ms"},
	{"active.select_ms", "ms"}, {"ml.refit_incremental_ratio", "ratio"},
	{"optimize.refined_rows_per_feedback", "count"}, {"optimize.refine_ms", "ms"},
	{"wal.append_ms", "ms"}, {"wal.bytes_per_row", "bytes"},
	{"live.advance_ms", "ms"}, {"live.new_session_ms", "ms"}, {"live.drift_rebuilds", "count"},
	{"client.append_late_ms_p90", "ms"},
	{"trace.coverage", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// deltaSeries are the existing /metricz counters the per-layer ratios rest
// on; every run reports how much each moved over its measured phase.
var deltaSeries = []string{
	"viewseeker_store_cache_hits_total", "viewseeker_store_cache_misses_total",
	"viewseeker_refit_incremental_total", "viewseeker_refit_rebuilds_total",
	"viewseeker_optimize_refined_rows_total", "viewseeker_active_labels_total",
	"viewseeker_par_item_seconds_sum",
	"viewseeker_session_evictions_total", "viewseeker_session_rehydrations_total",
	`viewseeker_session_shed_total{route="create"}`, `viewseeker_session_shed_total{route="rehydrate"}`,
	"viewseeker_store_journal_bytes_total", "viewseeker_store_journal_appends_total",
	"viewseeker_wal_bytes_total", "viewseeker_live_appended_rows_total",
	"viewseeker_live_drift_rebuilds_total",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printer writes the human-readable lines that precede the result line.
type printer struct{}

func (printer) note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func (printer) metric(name string, v float64, unit string, base string) {
	fmt.Printf("%-36s %16.6f %-6s %s\n", name, v, unit, base)
}

func main() {
	name := flag.String("workload", "", "syn_cold, diab_warm_budget or syn_live_append")
	seed := flag.Int64("seed", 1, "workload seed: data, queries, labels and appended rows derive from it")
	seconds := flag.Int("seconds", 30, "measured phase length")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run this many times with consecutive seeds and print each metric's median and quartiles")
	flag.Parse()
	if workloads[*name] == nil || *seconds < 1 || *seconds > maxSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (syn_cold, diab_warm_budget, syn_live_append), --seconds 1..%d, --trace 0|1\n", maxSeconds)
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*name, *seed, *seconds, *trace, *repeat))
	}
	os.Exit(run(*name, *seed, *seconds, *trace == 1))
}

func run(name string, seed int64, seconds int, traced bool) int {
	var p printer
	p.note("workload %s, seed %d, %d s measured, traced %v", name, seed, seconds, traced)
	p.note("%s, GOMAXPROCS %d, nproc %d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.env().teardown()
			runtime.GC()
		}
		w = workloads[name]()
		start := time.Now()
		if err := w.setup(seed, traced); err != nil {
			w.env().teardown()
			fmt.Fprintf(os.Stderr, "e2ebench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.env().teardown()
	p.note("setup_s samples %v", setups)

	c := w.env().c
	r := &runner{c: c, rec: newRecorder(), deadline: time.Now().Add(time.Duration(seconds) * time.Second)}
	before, err := c.metricz()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	start := time.Now()
	w.measure(r)
	elapsed := time.Since(start).Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after, err := c.metricz()
	r.rec.attempt(err)
	delta := make(map[string]float64)
	for _, s := range deltaSeries {
		delta[s] = after[s] - before[s]
		p.note("/metricz delta %-50s %g", s, delta[s])
	}
	w.check(r)
	attempted, failed, checkFailed, fails := r.rec.counts()
	for _, f := range fails {
		p.note("FAILED: %s", f)
	}

	rec := r.rec
	out := map[string]float64{
		"setup_s":          median(setups),
		"create_ms_p50":    percentile(rec.get("create"), 0.5),
		"create_ms_p90":    percentile(rec.get("create"), 0.9),
		"feedback_ms_p50":  percentile(rec.get("feedback"), 0.5),
		"feedback_ms_p90":  percentile(rec.get("feedback"), 0.9),
		"top_ms_p50":       percentile(rec.get("top"), 0.5),
		"sessions_per_s":   float64(len(rec.get("session"))) / elapsed,
		"session_bytes":    median(r.perSession),
		"retained_heap_mb": float64(ms.HeapAlloc) / (1 << 20),

		"revisit_ms_p50":            percentile(rec.get("revisit"), 0.5),
		"revisit_ms_p90":            percentile(rec.get("revisit"), 0.9),
		"append_ms_p50":             percentile(rec.get("append"), 0.5),
		"append_ms_p90":             percentile(rec.get("append"), 0.9),
		"maintain_lag_ms_p50":       percentile(rec.get("maintain_lag"), 0.5),
		"failed_ratio":              ratio(float64(failed), float64(attempted)),
		"client.append_late_ms_p90": percentile(rec.get("append_late"), 0.9),
	}
	for _, k := range []string{"create", "feedback", "top", "revisit", "append", "maintain_lag", "session"} {
		p.note("samples %-13s %d", k, len(rec.get(k)))
	}
	p.note("session_bytes samples %d; measured phase %.3f s; %d/%d operations failed (%d output checks)",
		len(r.perSession), elapsed, failed, attempted, checkFailed)

	defs := endToEnd
	if traced {
		defs = perLayer
		for _, kind := range []string{"create", "feedback", "top", "append"} {
			for _, m := range []string{"server.handler_ms.", "server.wire_ms.", "server.response_bytes."} {
				out[m+kind] = median(rec.get(m + kind))
			}
		}
		hits, misses := delta["viewseeker_store_cache_hits_total"], delta["viewseeker_store_cache_misses_total"]
		inc, reb := delta["viewseeker_refit_incremental_total"], delta["viewseeker_refit_rebuilds_total"]
		labels := delta["viewseeker_active_labels_total"]
		jBytes, jOps := delta["viewseeker_store_journal_bytes_total"], delta["viewseeker_store_journal_appends_total"]
		wBytes, wRows := delta["viewseeker_wal_bytes_total"], delta["viewseeker_live_appended_rows_total"]
		out["store.cache_hit_ratio"] = ratio(hits, hits+misses)
		out["ml.refit_incremental_ratio"] = ratio(inc, inc+reb)
		out["optimize.refined_rows_per_feedback"] = ratio(delta["viewseeker_optimize_refined_rows_total"], labels)
		out["store.journal_bytes_per_op"] = ratio(jBytes, jOps)
		out["wal.bytes_per_row"] = ratio(wBytes, wRows)
		out["session.evictions"] = delta["viewseeker_session_evictions_total"]
		out["session.rehydrations"] = delta["viewseeker_session_rehydrations_total"]
		out["session.shed"] = delta[`viewseeker_session_shed_total{route="create"}`] + delta[`viewseeker_session_shed_total{route="rehydrate"}`]
		p.note("store.cache_hit_ratio base: %g hits of %g lookups", hits, hits+misses)
		p.note("ml.refit_incremental_ratio base: %g incremental of %g refits", inc, inc+reb)
		p.note("optimize.refined_rows_per_feedback base: %g rows over %g labels", delta["viewseeker_optimize_refined_rows_total"], labels)
		p.note("store.journal_bytes_per_op base: %g bytes over %g appends", jBytes, jOps)
		p.note("wal.bytes_per_row base: %g bytes over %g rows", wBytes, wRows)

		lr := newLayerRun()
		if err := w.layers(lr); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: traced replay: %v\n", err)
			return 1
		}
		lr.report(p)
		for k, v := range lr.out {
			out[k] = v
		}
		// Drift rebuilds: the server's maintainer plus the replay's states.
		out["live.drift_rebuilds"] += delta["viewseeker_live_drift_rebuilds_total"]
		if path, err := lr.dump(name, seed); err == nil {
			p.note("spans written to %s", path)
		}
	}

	res := result{Correct: checkFailed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out[d.name], Unit: d.unit}
		p.metric(d.name, out[d.name], d.unit, "")
	}
	if !traced {
		// The one-workload end-to-end metrics, printed where they apply.
		for _, d := range perLayer[:6] {
			p.metric(d.name, out[d.name], d.unit, "(not gated)")
		}
		if name == "syn_live_append" {
			p.metric("client.append_late_ms_p90", out["client.append_late_ms_p90"], "ms", "(not gated)")
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// repeatRuns runs the benchmark n times with consecutive seeds, each in
// its own process, and prints every metric's median, quartiles and
// quartile spread across the runs.
func repeatRuns(name string, seed int64, seconds, trace, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(stdout))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), []byte("# FAILED")) {
				fmt.Printf("# seed %d: %s\n", s, sc.Bytes()[2:])
			}
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if jerr := json.Unmarshal(last, &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: seed %d: no result (%v, %v)\n", s, err, jerr)
			return 1
		}
		total.Correct = total.Correct && res.Correct && err == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Printf("# seed %d: correct %v, %d/%d failed, %s\n", s, res.Correct, res.Failed, res.Attempted, last)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %-34s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		fmt.Printf("# %-34s %14.6f %14.6f %14.6f %8.4f %s\n", k, med, q1, q3, ratio(q3-q1, med), units[k])
		total.Metrics[k] = metricValue{Value: med, Unit: units[k]}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}
