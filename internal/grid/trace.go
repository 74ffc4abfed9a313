package grid

// Fleet trace collection: workers stream their span journals to the
// coordinator in chunked, idempotent POST /v1/trace uploads, and the
// coordinator persists each (job, writer) stream verbatim in the same
// append-only JSONL format the workers write locally. Because the
// collected files are byte-for-byte copies of the originals,
// obs.Merge / obs.Analyze work unchanged on the collected set and
// produce output identical to merging the workers' local journals.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/linelog"
	"repro/internal/obs"
)

// fleetScope is the collection scope for journals shipped without a
// job binding (multi-job workers trace all their jobs into one
// journal). It can never collide with a job ID — IDs are always
// "<domain>-<12 hex digits>".
const fleetScope = "_fleet"

// --- Wire types ---

// TraceUpload is one chunk of a worker's span journal. Offset is the
// byte position of Data within the worker's local journal; the
// coordinator appends exactly the bytes it has not seen yet, so
// re-sending a chunk (retry after a lost 200) or overlapping a
// previous one is safe. Data always ends on a record boundary
// (obs.ReadChunk).
type TraceUpload struct {
	Writer string `json:"writer"`
	Job    string `json:"job,omitempty"`
	Offset int64  `json:"offset"`
	Data   []byte `json:"data,omitempty"`
}

// TraceAck tells the uploader where the collected copy of its journal
// ends. Have is authoritative: whatever the request's offset was, the
// client's next chunk starts at Have. A gap (offset past Have, e.g.
// after a coordinator restart lost collected bytes) accepts nothing
// and the client rewinds; a duplicate or overlap accepts only the
// unseen suffix.
type TraceAck struct {
	Have      int64 `json:"have"`
	Accepted  int64 `json:"accepted"`
	Duplicate bool  `json:"duplicate,omitempty"`
}

// TraceDigest is what GET /v1/trace?format=digest serves: obs.Analyze
// over the collected journals of one scope — totals, per-measure
// latency, per-worker utilization, stragglers and the critical path —
// cheap enough to poll from a dashboard.
type TraceDigest struct {
	Job      string       `json:"job,omitempty"`
	Journals int          `json:"journals"`
	Analysis obs.Analysis `json:"analysis"`
}

// --- Collector ---

type traceKey struct{ job, writer string }

type traceJournal struct {
	job    string // "" = fleet scope
	writer string
	log    *linelog.Log // its Size is the uploader's acked offset
}

// traceCollector owns the coordinator's collected journals: one
// verbatim file per (job, writer) under <root>/<scope>/trace/, where
// scope is the job ID or "_fleet". With no configured directory a
// temp dir is created lazily and removed on Close, so an in-memory
// coordinator still collects traces through the one file-based path.
type traceCollector struct {
	configured string // CoordinatorOptions.Dir, "" = temp
	// observe receives every run of whole lines a journal gains. It is
	// called under mu, so it must not call back into the collector.
	observe func(lines io.Reader)

	mu       sync.Mutex
	root     string // resolved on first use
	temp     bool
	journals map[traceKey]*traceJournal
	digests  map[string]*traceDigestCache
}

// traceDigestCache memoises one scope's obs.Analyze result, keyed by
// the scope's collected byte total — appends invalidate it, polling
// an idle fleet does not re-analyze.
type traceDigestCache struct {
	bytes    int64
	journals int
	analysis *obs.Analysis
}

func newTraceCollector(dir string, observe func(lines io.Reader)) *traceCollector {
	if observe == nil {
		observe = func(io.Reader) {}
	}
	return &traceCollector{
		configured: dir,
		observe:    observe,
		journals:   map[traceKey]*traceJournal{},
		digests:    map[string]*traceDigestCache{},
	}
}

func scopeName(job string) string {
	if job == "" {
		return fleetScope
	}
	return job
}

func (tc *traceCollector) rootLocked() (string, error) {
	if tc.root != "" {
		return tc.root, nil
	}
	if tc.configured != "" {
		tc.root = tc.configured
		return tc.root, nil
	}
	dir, err := os.MkdirTemp("", "grid-trace-")
	if err != nil {
		return "", err
	}
	tc.root, tc.temp = dir, true
	return tc.root, nil
}

// journalLocked returns (opening if needed) the collected journal for
// one (job, writer) stream. linelog's open-time trim is what the offset
// protocol needs after a coordinator restart: the collected size sits
// on a record boundary of the worker's journal. What a reopened journal
// already holds goes to observe once, here.
func (tc *traceCollector) journalLocked(job, writer string) (*traceJournal, error) {
	key := traceKey{job, writer}
	if j := tc.journals[key]; j != nil {
		return j, nil
	}
	root, err := tc.rootLocked()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, scopeName(job), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := linelog.Open(obs.JournalPath(dir, writer))
	if err != nil {
		return nil, err
	}
	if log.Size() > 0 {
		f, err := os.Open(log.Path())
		if err != nil {
			log.Close()
			return nil, err
		}
		tc.observe(io.LimitReader(f, log.Size()))
		f.Close()
	}
	j := &traceJournal{job: job, writer: writer, log: log}
	tc.journals[key] = j
	return j, nil
}

// append ingests one upload chunk idempotently: only bytes past the
// collected size are written (verbatim, durably) and observed, so
// replays and overlaps never duplicate or tear a record. Returns the ack
// plus the appended byte/span counts for metrics. A chunk it refuses
// changes nothing: a writer name obs.JournalPath would rewrite (two such
// names would share one collected file), a negative offset, or data that
// does not end on a line boundary (the next chunk would fuse onto it).
func (tc *traceCollector) append(job, writer string, offset int64, data []byte) (ack TraceAck, spans int64, dup bool, err error) {
	switch {
	case !plainName(writer):
		return TraceAck{}, 0, false, fmt.Errorf("grid: trace writer %q: a name is one or more of A-Z a-z 0-9 . _ -", writer)
	case offset < 0:
		return TraceAck{}, 0, false, fmt.Errorf("grid: trace upload offset must be >= 0")
	case len(data) > 0 && data[len(data)-1] != '\n':
		return TraceAck{}, 0, false, fmt.Errorf("grid: trace chunk must be whole lines, ending in '\\n'")
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	j, err := tc.journalLocked(job, writer)
	if err != nil {
		return TraceAck{}, 0, false, fmt.Errorf("grid: trace collect: %w", err)
	}
	have := j.log.Size()
	switch {
	case offset > have:
		// Gap: the client is ahead of us (collected bytes were lost to
		// a restart). Accept nothing; the client rewinds to Have.
		return TraceAck{Have: have}, 0, false, nil
	case offset+int64(len(data)) <= have:
		// Entirely seen before — a retry after a lost ack.
		return TraceAck{Have: have, Duplicate: true}, 0, len(data) > 0, nil
	}
	app := data[have-offset:]
	if err := j.log.Append(app, true); err != nil {
		return TraceAck{}, 0, false, fmt.Errorf("grid: trace collect: %w", err)
	}
	tc.observe(bytes.NewReader(app))
	return TraceAck{Have: j.log.Size(), Accepted: int64(len(app)), Duplicate: offset < have},
		int64(bytes.Count(app, []byte{'\n'})), offset < have, nil
}

func (tc *traceCollector) journalCount() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, j := range tc.journals {
		if j.log.Size() > 0 {
			n++
		}
	}
	return n
}

// pathsLocked lists the collected journal files for one scope ("" =
// every scope), sorted for deterministic merges. Streams with nothing
// collected yet (a gap after a restart, an empty upload) have an empty
// file and are skipped.
func (tc *traceCollector) pathsLocked(job string) []string {
	var paths []string
	for _, j := range tc.journals {
		if j.log.Size() > 0 && (job == "" || j.job == job) {
			paths = append(paths, j.log.Path())
		}
	}
	sort.Strings(paths)
	return paths
}

func (tc *traceCollector) paths(job string) []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.pathsLocked(job)
}

// scopes lists the distinct jobs with collected journals ("" = fleet
// scope), sorted with the fleet scope last.
func (tc *traceCollector) scopes() []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	seen := map[string]bool{}
	for _, j := range tc.journals {
		seen[j.job] = true
	}
	var out []string
	for job := range seen {
		if job != "" {
			out = append(out, job)
		}
	}
	sort.Strings(out)
	if seen[""] {
		out = append(out, "")
	}
	return out
}

func (tc *traceCollector) bytesLocked(job string) int64 {
	var total int64
	for _, j := range tc.journals {
		if job == "" || j.job == job {
			total += j.log.Size()
		}
	}
	return total
}

// digest analyzes one scope's collected timeline, memoised by
// collected byte total. The file reads run outside the lock —
// collected journals only ever grow, so a racing append at worst
// leaves this digest one chunk behind, which the next poll fixes.
func (tc *traceCollector) digest(job string) (*obs.Analysis, int, error) {
	tc.mu.Lock()
	paths := tc.pathsLocked(job)
	total := tc.bytesLocked(job)
	if dc := tc.digests[job]; dc != nil && dc.bytes == total && dc.journals == len(paths) {
		a, n := dc.analysis, dc.journals
		tc.mu.Unlock()
		return a, n, nil
	}
	tc.mu.Unlock()

	recs, err := obs.LoadFiles(paths...)
	if err != nil {
		return nil, 0, err
	}
	a := obs.Analyze(recs)

	tc.mu.Lock()
	tc.digests[job] = &traceDigestCache{bytes: total, journals: len(paths), analysis: a}
	tc.mu.Unlock()
	return a, len(paths), nil
}

// Close closes the collected journals and removes the lazily created
// temp root, if any.
func (tc *traceCollector) Close() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var first error
	for key, j := range tc.journals {
		if err := j.log.Close(); err != nil && first == nil {
			first = err
		}
		delete(tc.journals, key)
	}
	if tc.temp && tc.root != "" {
		if err := os.RemoveAll(tc.root); err != nil && first == nil {
			first = err
		}
		tc.root, tc.temp = "", false
	}
	return first
}

// --- Handlers ---

// knownScope refuses a trace scope that names an unregistered job; ""
// (the fleet scope on upload, every scope on read) always passes.
func (c *Coordinator) knownScope(jobID string) error {
	if jobID == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.getJob(jobID)
	return err
}

func (c *Coordinator) collectTrace(r *http.Request, up TraceUpload) (TraceAck, error) {
	if err := c.knownScope(up.Job); err != nil {
		return TraceAck{}, err
	}
	ack, spans, dup, err := c.traces.append(up.Job, up.Writer, up.Offset, up.Data)
	if err != nil {
		return TraceAck{}, err
	}
	c.metrics.traceUploads.Inc()
	c.metrics.traceBytes.Add(float64(ack.Accepted))
	c.metrics.traceSpans.Add(float64(spans))
	if dup {
		c.metrics.traceDedup.Inc()
	}
	if ack.Accepted > 0 {
		c.log.Info("trace chunk collected", "rid", requestID(r.Context()), "job", scopeName(up.Job),
			"worker", up.Writer, "bytes", ack.Accepted, "spans", spans, "have", ack.Have)
	}
	return ack, nil
}

func (c *Coordinator) traceDigest(jobID string) (TraceDigest, error) {
	if err := c.knownScope(jobID); err != nil {
		return TraceDigest{}, err
	}
	a, journals, err := c.traces.digest(jobID)
	if err != nil {
		return TraceDigest{}, fmt.Errorf("grid: trace digest: %w", err)
	}
	return TraceDigest{Job: jobID, Journals: journals, Analysis: *a}, nil
}

// --- Client ---

// traceURL is the trace route scoped to jobID ("" = every collected
// journal), as the digest or the merged journal.
func traceURL(baseURL, jobID string, digest bool) string {
	q := url.Values{}
	if digest {
		q.Set("format", "digest")
	}
	if jobID != "" {
		q.Set("job", jobID)
	}
	u := routeURL(baseURL, pathTrace, "")
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// FetchTraceDigest fetches a coordinator's analyzed trace summary;
// jobID "" digests every collected journal.
func FetchTraceDigest(ctx context.Context, client *http.Client, baseURL, jobID string) (TraceDigest, error) {
	var d TraceDigest
	_, err := call(ctx, client, http.MethodGet, traceURL(baseURL, jobID, true), nil, &d)
	return d, err
}

// FetchTrace streams a coordinator's merged trace journal — JSONL in
// the canonical obs.Merge order, parseable with obs.LoadReader — as
// long as the coordinator sends it: a collected fleet journal has no
// size the client could cap without cutting the timeline. jobID ""
// merges every collected journal. The caller closes the stream.
//
// With a nil client, DefaultHTTPTimeout bounds connecting and the
// response headers only (a client Timeout would also cover reading the
// body); the body streams until it ends or ctx is cancelled.
func FetchTrace(ctx context.Context, client *http.Client, baseURL, jobID string) (io.ReadCloser, error) {
	ctx, cancel := context.WithCancel(ctx)
	if client == nil {
		client = &http.Client{}
		defer time.AfterFunc(DefaultHTTPTimeout, cancel).Stop()
	}
	u := traceURL(baseURL, jobID, false)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	var resp *http.Response
	if err == nil {
		resp, err = client.Do(req)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer cancel()
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // an error body is a line of JSON
		return nil, fmt.Errorf("grid: GET %s: %s: %s", u, resp.Status, bytes.TrimSpace(msg))
	}
	return stream{resp.Body, cancel}, nil
}

// stream is a response body that releases its request's context when
// closed.
type stream struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (s stream) Close() error {
	defer s.cancel()
	return s.ReadCloser.Close()
}
