package grid

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/obs"
)

// The HTTP surface: every route is declared once, in routes below, and
// the client half (grid.go's call, the worker, the trace shipper) builds
// its URLs from the same path constants. A JSON route is a typed call
// behind jsonCall; the handful of non-JSON answers (CSV, NDJSON streams,
// the dashboard, /metrics) write their own bodies.
const (
	pathJobs      = "/v1/jobs"
	pathJob       = "/v1/jobs/{id}"
	pathLease     = "/v1/lease"
	pathJobLease  = "/v1/jobs/{id}/lease"
	pathHeartbeat = "/v1/jobs/{id}/heartbeat"
	pathResults   = "/v1/jobs/{id}/results"
	pathProgress  = "/v1/jobs/{id}/progress"
	pathCache     = "/v1/cache"
	pathDrain     = "/v1/drain"
	pathTrace     = "/v1/trace"
	pathDashboard = "/v1/dashboard"
	pathMetrics   = "/metrics"
)

// routeURL is the client's address of a route: base plus the path
// pattern with {id} filled in.
func routeURL(base, pattern, id string) string {
	return strings.TrimSuffix(base, "/") + strings.Replace(pattern, "{id}", url.PathEscape(id), 1)
}

// route is one endpoint of the API. Mutating routes are guarded: with
// CoordinatorOptions.AuthToken set they need the bearer token, while the
// read-only ones stay open so operators can observe a grid they cannot
// drive.
type route struct {
	method, path string
	guarded      bool
	serve        http.HandlerFunc
}

// noBody is the request type of a route that reads no request body.
type noBody struct{}

// routes is the API, whole.
func (c *Coordinator) routes() []route {
	lease := jsonCall(c, func(r *http.Request, req LeaseRequest) (LeaseResponse, error) {
		if id := r.PathValue("id"); id != "" {
			req.Job = id
		}
		return c.leaseHeld(r.Context(), req)
	})
	return []route{
		// Jobs: list (summaries), create from an encoded spec (idempotent —
		// the ID derives from the spec bytes), detail incl. the spec payload.
		{"GET", pathJobs, false, jsonCall(c, func(*http.Request, noBody) (jobsResponse, error) {
			return jobsResponse{Jobs: c.Summaries()}, nil
		})},
		{"POST", pathJobs, true, jsonCall(c, c.createJob)},
		{"GET", pathJob, false, jsonCall(c, func(r *http.Request, _ noBody) (JobDetail, error) {
			return c.jobDetail(r.PathValue("id"))
		})},
		// The worker loop: lease a sized grant of tasks — of one job, or of
		// whichever the fair scheduler picks — extend the leases and learn
		// which were lost, upload finished tasks' values (one ack each,
		// idempotent per task), a batch's last body asking for the next
		// grant: ingested first, then granted by Lease, as a lease call is.
		{"POST", pathLease, true, lease},
		{"POST", pathJobLease, true, lease},
		{"POST", pathHeartbeat, true, jsonCall(c, func(r *http.Request, req HeartbeatRequest) (HeartbeatResponse, error) {
			return c.Heartbeat(r.Context(), r.PathValue("id"), req)
		})},
		{"POST", pathResults, true, jsonCall(c, func(r *http.Request, up ResultsUpload) (ResultsAck, error) {
			acks, err := c.IngestResults(r.Context(), r.PathValue("id"), up)
			ack := ResultsAck{Acks: acks}
			if err == nil && up.Lease != nil {
				if grant, err := c.Lease(r.Context(), up.Lease.Job, up.Worker, up.Lease.MaxTasks); err == nil {
					ack.Grant = &grant
				}
			}
			return ack, err
		})},
		// Reads: assembled scores (JSON, or ?format=csv), a progress snapshot
		// (or ?stream=1 for NDJSON snapshots until the job completes), the
		// cross-job score cache's counters.
		{"GET", pathResults, false, c.serveResults},
		{"GET", pathProgress, false, c.serveProgress},
		{"GET", pathCache, false, jsonCall(c, func(*http.Request, noBody) (CacheStatsResponse, error) {
			stats, enabled := c.CacheStats()
			return CacheStatsResponse{Enabled: enabled, CacheStats: stats}, nil
		})},
		// Stop granting leases; settle what is in flight and exit.
		{"POST", pathDrain, true, jsonCall(c, func(r *http.Request, _ noBody) (DrainResponse, error) {
			c.Drain(r.Context())
			c.mu.Lock()
			defer c.mu.Unlock()
			return DrainResponse{Draining: true, InFlight: c.inflightLocked()}, nil
		})},
		// Fleet traces: workers ship span-journal chunks in; out comes the
		// merged journal (NDJSON) or, with ?format=digest, its obs.Analysis.
		{"POST", pathTrace, true, jsonCall(c, c.collectTrace)},
		{"GET", pathTrace, false, c.serveTrace},
		// The operator's views of the same facts: HTML and Prometheus text.
		{"GET", pathDashboard, false, c.serveDashboard},
		{"GET", pathMetrics, false, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", gridobs.TextContentType)
			c.metrics.reg.WritePrometheus(w)
		}},
	}
}

// leaseHeld answers a lease call. One that carries a wait bound and would
// be answered nothing — no task, its scope not complete, no drain — is
// held, and asked again of Lease whenever something may have changed
// that: a state change of its job (of any job, or a new one, for a call
// without one), the job's next lease deadline (expireAt), a drain or
// Close (or a quarantine of the caller, which then hears its verdict).
// The caller going away or the bound ends it with the empty answer.
// Lease itself never waits: bench and the upload's grant call it direct.
func (c *Coordinator) leaseHeld(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	bound := time.Now().Add(time.Duration(req.WaitMS) * time.Millisecond)
	for {
		c.mu.Lock()
		var wake <-chan struct{}
		if j := c.jobs[req.Job]; j != nil {
			wake = j.changed.wait()
		} else {
			wake = c.changed.wait()
		}
		closed := c.closed
		c.mu.Unlock()
		resp, err := c.Lease(ctx, req.Job, req.Worker, req.MaxTasks)
		wait := time.Until(bound)
		if err != nil || len(resp.Tasks) > 0 || resp.Complete || resp.Draining || wait <= 0 || closed {
			return resp, err
		}
		c.mu.Lock()
		for _, j := range c.jobs {
			if d := j.expireAt.Sub(c.now()); d > 0 && (req.Job == "" || req.Job == j.id) {
				wait = min(wait, d)
			}
		}
		c.mu.Unlock()
		if !c.hold(ctx, wake, wait) {
			return resp, nil
		}
	}
}

// holdFor is the wall-clock hold.
func holdFor(ctx context.Context, wake <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-wake:
	case <-t.C:
	case <-ctx.Done():
		return false
	}
	return true
}

// Handler returns the full API: the routes, each request passed through
// serve.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range c.routes() {
		serve := rt.serve
		if rt.guarded {
			serve = c.authed(serve)
		}
		mux.Handle(rt.method+" "+rt.path, serve)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { c.serve(mux, w, r) })
}

// serve is the one wrapper around every request. It keeps the caller's
// request ID if it is a plain name of at most 64 bytes (a space, a quote
// or an = would be echoed into the response and forge fields in the
// log), else mints one, and puts it on the response and in the context;
// answers the request through a responseWriter; and then counts it by
// status, times it, and writes its access record — at Debug for the
// successful GETs and /metrics scrapes that dashboards and progress
// streams poll with.
func (c *Coordinator) serve(mux http.Handler, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(HeaderRequestID)
	if len(id) > 64 || !plainName(id) {
		id = newRequestID()
	}
	w.Header().Set(HeaderRequestID, id)
	rw := &responseWriter{ResponseWriter: w}
	mux.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), ridKey{}, id)))
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	elapsed := time.Since(start)
	c.metrics.httpRequests.With(strconv.Itoa(rw.status)).Inc()
	c.metrics.httpDuration.Observe(elapsed.Seconds())
	level := slog.LevelInfo
	if rw.status < 400 && (r.Method == http.MethodGet || r.URL.Path == pathMetrics) {
		level = slog.LevelDebug
	}
	c.log.LogAttrs(r.Context(), level, "request", slog.String("rid", id),
		slog.String("method", r.Method), slog.String("path", r.URL.Path), slog.Int("status", rw.status),
		slog.Int64("bytes", rw.bytes), slog.Duration("elapsed", elapsed), slog.String("remote", r.RemoteAddr))
}

type ridKey struct{}

// requestID is the ID of the request ctx serves, or "" outside one.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// plainName reports whether s is one or more of A-Z a-z 0-9 . _ - — what
// a request ID or a trace writer's name may be.
func plainName(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '.' || r == '_' || r == '-')
	})
}

// jsonCall adapts one typed coordinator call to HTTP: decode the JSON
// body (readBody answers its own failures; a noBody route has none to
// decode), make the call, answer its outcome.
func jsonCall[Req, Resp any](c *Coordinator, call func(r *http.Request, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if _, none := any(req).(noBody); !none && !c.readBody(w, r, &req) {
			return
		}
		resp, err := call(r, req)
		answer(w, resp, err)
	}
}

// answer writes a typed call's outcome: the result as JSON, or the error
// in the API's error shape. The routes that also speak CSV or NDJSON
// answer their JSON variant through it too.
func answer[Resp any](w http.ResponseWriter, resp Resp, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// authed guards one mutating route with the shared-secret token. The
// compare hashes both sides first, so it is constant-time regardless
// of the presented token's length.
func (c *Coordinator) authed(h http.HandlerFunc) http.HandlerFunc {
	if c.opts.AuthToken == "" {
		return h
	}
	want := sha256.Sum256([]byte(c.opts.AuthToken))
	return func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(bearerToken(r)))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			c.metrics.authFailures.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="grid"`)
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "grid: missing or invalid auth token"})
			return
		}
		h(w, r)
	}
}

func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

// responseWriter is the one wrapper around a response. It records the
// status and the bytes written for the access record, and rewrites the
// mux's text/plain 404 and 405 pages into the API's JSON error shape, so
// every error a client can receive — wrong path, wrong method, bad body,
// unknown job — has the same {"error": ...} contract (answers that chose
// a JSON content type pass untouched). Flush is forwarded for the NDJSON
// streams.
type responseWriter struct {
	http.ResponseWriter
	status  int
	bytes   int64
	swallow bool // the mux's own error page: ours is already written
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	h := w.Header()
	if code != http.StatusNotFound && code != http.StatusMethodNotAllowed || strings.Contains(h.Get("Content-Type"), "json") {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	w.swallow = true
	h.Set("Content-Type", "application/json")
	h.Del("Content-Length")
	w.ResponseWriter.WriteHeader(code)
	msg := "grid: not found"
	if code == http.StatusMethodNotAllowed {
		msg = "grid: method not allowed"
	}
	body, _ := json.Marshal(errorBody{Error: msg})
	n, _ := w.ResponseWriter.Write(append(body, '\n'))
	w.bytes += int64(n)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.swallow {
		return len(p), nil
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *responseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON marshals before touching the response, so an encoding
// failure becomes a clean 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"grid: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// incompleteError refuses a job's results while tasks are outstanding:
// 409, with the progress so far beside the message.
type incompleteError struct{ snap ProgressSnapshot }

func (e *incompleteError) Error() string {
	return fmt.Sprintf("grid: job %s incomplete: %d/%d tasks done", e.snap.JobID, e.snap.Done, e.snap.Total)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var body any = errorBody{Error: err.Error()}
	var tooBig *http.MaxBytesError
	var incomplete *incompleteError
	switch {
	case errors.Is(err, errUnknownJob), errors.Is(err, errUnknownTask):
		status = http.StatusNotFound
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
		body = errorBody{Error: fmt.Sprintf("grid: request body exceeds %d bytes", tooBig.Limit)}
	case errors.As(err, &incomplete):
		status = http.StatusConflict
		body = struct {
			errorBody
			Progress ProgressSnapshot `json:"progress"`
		}{errorBody{Error: err.Error()}, incomplete.snap}
	case errors.Is(err, errQuarantined):
		// 429 with the quarantine marker, so clients know retrying is
		// pointless; the long Retry-After tells generic HTTP clients the
		// same thing.
		w.Header().Set("Retry-After", "3600")
		w.Header().Set(HeaderQuarantined, "1")
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, body)
}

// readBody decodes a JSON request body, bounded by DefaultMaxBody: oversized
// bodies answer 413, malformed ones 400 — always as structured JSON.
// A request carrying the body-checksum header is verified first; a
// mismatch is transport corruption (the client signed what it meant to
// send), answered 400 with the corrupt-body marker so the client
// retries instead of treating it as a protocol error — and so a
// corrupted result upload is rejected here rather than recorded and
// later mistaken for a Byzantine worker.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.opts.maxBody))
	if err != nil {
		writeError(w, fmt.Errorf("grid: bad request body: %w", err))
		return false
	}
	if want := r.Header.Get(HeaderBodySHA256); want != "" {
		sum := sha256.Sum256(body)
		if !strings.EqualFold(hex.EncodeToString(sum[:]), want) {
			c.metrics.corruptBodies.Inc()
			w.Header().Set(HeaderCorruptBody, "1")
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: "grid: request body checksum mismatch (corrupted in transit)"})
			return false
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, fmt.Errorf("grid: bad request body: %w", err))
		return false
	}
	return true
}

func (c *Coordinator) createJob(_ *http.Request, req CreateJobRequest) (JobSummary, error) {
	spec, err := job.DecodeSpec(req.Spec)
	if err != nil {
		return JobSummary{}, err
	}
	id, err := c.AddJob(spec)
	if err != nil {
		return JobSummary{}, err
	}
	d, err := c.jobDetail(id)
	return d.JobSummary, err
}

// serveResults answers a complete job's scores, as JSON or — with
// ?format=csv — in the domain's CSV layout.
func (c *Coordinator) serveResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	scores, d, err := c.finished(id)
	switch {
	case err != nil:
		writeError(w, err)
	case r.URL.Query().Get("format") != "csv":
		answer(w, scoresToWire(scores), nil)
	default:
		w.Header().Set("Content-Type", "text/csv")
		if err := dsa.WriteCSV(w, d, scores); err != nil {
			c.log.Error("CSV render failed", "rid", requestID(r.Context()), "job", id, "err", err)
		}
	}
}

// serveProgress serves one snapshot, or — with ?stream=1 — newline-
// delimited JSON snapshots on every state change (and at least once a
// second, so lease expiries surface) until the job completes or the
// client goes away.
func (c *Coordinator) serveProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := c.Progress(id)
	if err != nil || r.URL.Query().Get("stream") == "" {
		answer(w, snap, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var last ProgressSnapshot
	first := true
	for {
		if first || snap != last {
			if err := enc.Encode(snap); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, first = snap, false
		}
		if snap.Complete {
			return
		}
		c.mu.Lock()
		j, err := c.getJob(id)
		if err != nil {
			c.mu.Unlock()
			return
		}
		changed := j.changed.wait()
		c.mu.Unlock()
		select {
		case <-changed:
		case <-time.After(time.Second):
		case <-r.Context().Done():
			return
		}
		if snap, err = c.Progress(id); err != nil {
			return
		}
	}
}

// serveTrace answers the collected timeline of one job (?job=) or of
// every scope: the merged journal, or with ?format=digest its analysis.
func (c *Coordinator) serveTrace(w http.ResponseWriter, r *http.Request) {
	jobID := r.URL.Query().Get("job")
	if r.URL.Query().Get("format") == "digest" {
		digest, err := c.traceDigest(jobID)
		answer(w, digest, err)
		return
	}
	if err := c.knownScope(jobID); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if paths := c.traces.paths(jobID); len(paths) > 0 { // none: 200, an empty timeline
		if _, err := obs.Merge(w, paths...); err != nil {
			c.log.Error("trace merge failed", "rid", requestID(r.Context()), "job", jobID, "err", err)
		}
	}
}

// Serve listens on addr and serves the API until ctx is cancelled or a
// drain completes (POST /v1/drain, or Drain called directly) — the
// latter exits cleanly after in-flight work settles. onListen (if
// non-nil) receives the bound address before serving — useful with
// ":0".
func (c *Coordinator) Serve(ctx context.Context, addr string, onListen func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: c.Handler()}
	stopped, shutdown := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(shutdown)
		select {
		case <-ctx.Done():
		case <-c.Drained():
		case <-stopped:
			return
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	err = srv.Serve(ln)
	close(stopped)
	// Serve returns the moment Shutdown begins; the answers still being
	// written — the drain request's own among them — need it to finish.
	<-shutdown
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
