package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/grid"
	"repro/internal/job"
)

// Layers a span is charged to. The budget reports one share per layer;
// whatever no span covers is budget.untraced_share.
const (
	layerNone       = "" // structural spans (sweep root, ExecTasks): their self time is untraced
	layerSim        = "sim"
	layerCache      = "cache"
	layerCheckpoint = "checkpoint"
	layerGridHTTP   = "grid_http"
	layerGridServer = "grid_server"
	layerAssemble   = "assemble_csv"
)

var budgetLayers = []string{layerSim, layerCache, layerCheckpoint, layerGridHTTP, layerGridServer, layerAssemble}

// span is one timed call into a layer, recorded from bench/ around the
// call (spans inside the program are a later issue). Start and End are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Sweep  int    `json:"sweep"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	sweep  atomic.Int64  // id of the traced sweep in flight
	scope  atomic.Uint64 // parent for spans begun inside callbacks (decorators, sinks, HTTP)

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has begun; end records it.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(parent uint64, name, layer string) openSpan {
	return openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Sweep: int(t.sweep.Load()),
		Name: name, Layer: layer, Start: int64(time.Since(t.epoch)),
	}}
}

// beginScoped begins a span under the current scope span.
func (t *tracer) beginScoped(name, layer string) openSpan {
	return t.begin(t.scope.Load(), name, layer)
}

// end stamps the span, records it and returns it.
func (o openSpan) end() span {
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after the first n.
func (t *tracer) since(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other (pool goroutines run concurrently under one ExecTasks span) and
// may stick out of the parent; the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		reach := s.Start // everything in [s.Start, reach) is accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerShares charges each span's self time to its layer and divides by
// p x the sweep's wall: with p closed-loop workers that is the capacity
// the sweep had. The remainder is the untraced share.
func layerShares(spans []span, p int, wallNS int64) map[string]float64 {
	self := selfTimes(spans)
	shares := make(map[string]float64, len(budgetLayers)+1)
	capacity := float64(p) * float64(wallNS)
	var named float64
	for _, s := range spans {
		if s.Layer == layerNone || capacity == 0 {
			continue
		}
		v := float64(self[s.ID]) / capacity
		shares[s.Layer] += v
		named += v
	}
	shares["untraced"] = 1 - named
	return shares
}

// tracedDomain records a span around every ScoreSlice call. Every other
// method forwards through the embedded domain, and ScoreVersion reports
// the inner domain's version (0 when it has none — what dsa.NewScoreKeyer
// assumes too), so cache keys are those of the undecorated domain.
type tracedDomain struct {
	dsa.Domain
	t *tracer
}

func (d tracedDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	s := d.t.beginScoped("domain.ScoreSlice", layerSim)
	defer s.end()
	return d.Domain.ScoreSlice(measure, pts, opponents, cfg)
}

func (d tracedDomain) ScoreVersion() int {
	if v, ok := d.Domain.(dsa.ScoreVersioned); ok {
		return v.ScoreVersion()
	}
	return 0
}

// tracedCache records a span around every call into a dsa.ScoreCache.
type tracedCache struct {
	inner dsa.ScoreCache
	t     *tracer
}

func (c tracedCache) Get(k dsa.CacheKey) (float64, bool) {
	s := c.t.beginScoped("cache.Get", layerCache)
	defer s.end()
	return c.inner.Get(k)
}

func (c tracedCache) Put(k dsa.CacheKey, v float64) {
	s := c.t.beginScoped("cache.Put", layerCache)
	defer s.end()
	c.inner.Put(k, v)
}

func (c tracedCache) GetOrCompute(k dsa.CacheKey, compute func() (float64, error)) (float64, error) {
	s := c.t.beginScoped("cache.GetOrCompute", layerCache)
	defer s.end()
	return c.inner.GetOrCompute(k, compute)
}

// httpStats collects what the timing transport and handler see during
// one traced grid sweep.
type httpStats struct {
	mu          sync.Mutex
	client      map[string][]float64 // request kind -> microseconds, client side
	server      map[string][]float64 // request kind -> microseconds, handler side
	reqBytes    int64
	respBytes   int64
	leases      int // lease requests answered
	emptyLeases int // of which granted nothing
	granted     int // tasks granted over all leases
}

func newHTTPStats() *httpStats {
	return &httpStats{client: map[string][]float64{}, server: map[string][]float64{}}
}

// requestKind names the grid endpoint a path hits.
func requestKind(path string) string {
	switch {
	case strings.HasSuffix(path, "/lease"):
		return "lease"
	case strings.HasSuffix(path, "/results"):
		return "results"
	}
	return "other"
}

const spanHeader = "X-Bench-Span"

// timingTransport is the client half: a span and a latency sample per
// request, from the moment the worker hands the request over until the
// whole response body has arrived.
type timingTransport struct {
	base  http.RoundTripper
	t     *tracer
	stats *httpStats
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := requestKind(req.URL.Path)
	s := tt.t.beginScoped("http."+kind, layerGridHTTP)
	clone := req.Clone(req.Context())
	clone.Header.Set(spanHeader, strconv.FormatUint(s.s.ID, 10))
	start := time.Now()
	resp, err := tt.base.RoundTrip(clone)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	us := float64(time.Since(start)) / float64(time.Microsecond)
	s.end()
	tt.stats.mu.Lock()
	tt.stats.client[kind] = append(tt.stats.client[kind], us)
	tt.stats.reqBytes += max(req.ContentLength, 0)
	tt.stats.respBytes += int64(len(body))
	var lease grid.LeaseResponse
	if kind == "lease" && json.Unmarshal(body, &lease) == nil {
		tt.stats.leases++
		tt.stats.granted += len(lease.Tasks)
		if len(lease.Tasks) == 0 {
			tt.stats.emptyLeases++
		}
	}
	tt.stats.mu.Unlock()
	return resp, err
}

// timingHandler is the server half: a span (child of the client span
// named in the request header) and a latency sample per request.
func timingHandler(next http.Handler, t *tracer, stats *httpStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := requestKind(r.URL.Path)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := t.begin(parent, "server."+kind, layerGridServer)
		start := time.Now()
		next.ServeHTTP(w, r)
		us := float64(time.Since(start)) / float64(time.Microsecond)
		s.end()
		stats.mu.Lock()
		stats.server[kind] = append(stats.server[kind], us)
		stats.mu.Unlock()
	})
}

// seamCounter counts the durable writes that pass job's writer seam, by
// kind of file. The seam is process-global, so it is installed only for
// the traced run and the checkpoint probe, and always restored.
type seamCounter struct {
	mu    sync.Mutex
	calls map[string]int64
	bytes map[string]int64
}

// File kinds of seamCounter.
const (
	fileWAL      = "wal"
	fileManifest = "manifest"
	fileResult   = "result"
	fileOther    = "other"
)

func fileKind(path string) string {
	base := filepath.Base(path)
	switch {
	case base == "coordinator.wal":
		return fileWAL
	case strings.HasPrefix(base, "manifest-"):
		return fileManifest
	case strings.HasPrefix(base, "task-"):
		return fileResult
	}
	return fileOther
}

func newSeamCounter() *seamCounter {
	return &seamCounter{calls: map[string]int64{}, bytes: map[string]int64{}}
}

// install puts the counter on job's writer seam and returns the func
// that restores whatever seam was there before.
func (c *seamCounter) install() (restore func()) {
	return job.SetWriterSeam(func(path string, w io.Writer) io.Writer {
		return &countingWriter{w: w, c: c, kind: fileKind(path)}
	})
}

type countingWriter struct {
	w    io.Writer
	c    *seamCounter
	kind string
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.mu.Lock()
	cw.c.calls[cw.kind]++
	cw.c.bytes[cw.kind] += int64(n)
	cw.c.mu.Unlock()
	return n, err
}

// snapshot returns the write calls and bytes seen so far for the given kinds.
func (c *seamCounter) snapshot(kinds ...string) (calls, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range kinds {
		calls += c.calls[k]
		bytes += c.bytes[k]
	}
	return calls, bytes
}
