package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// interactiveLimit is the paper's per-iteration latency budget tl: a
// feedback, top or revisit step slower than this counts as failed.
const interactiveLimit = time.Second

// recorder collects one run's latency samples and failure counts. All
// methods are safe for concurrent use by the client goroutines.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int
	failed    int
	checks    int // failed output checks, a subset of failed
	fails     []string
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

// add records one latency sample in milliseconds under name.
func (r *recorder) add(name string, ms float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], ms)
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// attempt counts one attempted operation, failed when err is non-nil.
func (r *recorder) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.fails) < 10 {
			r.fails = append(r.fails, err.Error())
		}
	}
}

// check counts one output check, failed when err is non-nil.
func (r *recorder) check(err error) {
	r.attempt(err)
	if err != nil {
		r.mu.Lock()
		r.checks++
		r.mu.Unlock()
	}
}

func (r *recorder) counts() (attempted, failed, checks int, fails []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed, r.checks, append([]string(nil), r.fails...)
}

// handlerTimer wraps the server's handler and records how long each request
// spent inside Handler().ServeHTTP, keyed by the X-Request-Id the client
// sets. The client subtracts it from the round trip to get the wire time.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	took map[string]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	if id := r.Header.Get("X-Request-Id"); id != "" {
		h.mu.Lock()
		h.took[id] = d
		h.mu.Unlock()
	}
}

func (h *handlerTimer) take(id string) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.took[id]
	delete(h.took, id)
	return d
}

// client talks to the server under test over loopback HTTP.
type client struct {
	base  string
	http  *http.Client
	timer *handlerTimer // nil outside the traced run
	ids   atomic.Int64
}

// reply is one completed request.
type reply struct {
	body    []byte
	rtt     time.Duration
	handler time.Duration // time inside the server's handler (traced run only)
}

// startServer serves h on a loopback listener. With traced set, requests
// are timed inside the handler as well.
func startServer(h http.Handler, traced bool) (*httptest.Server, *client) {
	c := &client{http: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute,
	}}}
	if traced {
		c.timer = &handlerTimer{next: h, took: make(map[string]time.Duration)}
		h = c.timer
	}
	ts := httptest.NewServer(h)
	c.base = ts.URL
	return ts, c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request; body, when non-nil, is JSON-encoded (or sent as-is
// when already []byte). A transport error or a non-2xx status is an error.
func (c *client) do(method, path string, body any) (reply, error) {
	var rd io.Reader
	if body != nil {
		b, ok := body.([]byte)
		if !ok {
			var err error
			if b, err = json.Marshal(body); err != nil {
				return reply{}, err
			}
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	id := "e2e-" + strconv.FormatInt(c.ids.Add(1), 10)
	req.Header.Set("X-Request-Id", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{body: data, rtt: time.Since(start)}
	if c.timer != nil {
		rp.handler = c.timer.take(id)
	}
	if err != nil {
		return rp, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return rp, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return rp, nil
}

// doJSON sends a request and decodes a JSON reply into out.
func (c *client) doJSON(method, path string, body, out any) (reply, error) {
	rp, err := c.do(method, path, body)
	if err != nil {
		return rp, err
	}
	if out != nil {
		if err := json.Unmarshal(rp.body, out); err != nil {
			return rp, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return rp, nil
}

// metricz reads GET /metricz into a series → value map. Histogram series
// keep their _sum/_count/_bucket suffixes.
func (c *client) metricz() (map[string]float64, error) {
	rp, err := c.do("GET", "/metricz", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(rp.body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Live []struct {
		MaintainerLag uint64 `json:"maintainerLag"`
	} `json:"live"`
}
