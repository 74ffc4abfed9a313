// Package grid turns the sweep engine from a library into a deployable
// service: an HTTP coordinator that owns a job's task list and
// checkpoint, and thin workers that lease tasks, compute them with the
// domain's ScoreSlice, and upload the values. The paper's headline
// experiment cost ~25 cluster-hours; the grid is how that workload
// spreads over machines without hand-partitioning -shards/-shard-index
// up front and without losing a shard's share when its machine dies.
//
// The coordinator's unit of work is exactly internal/job's Task, and
// each task moves through a small lease state machine:
//
//	pending ── lease ──▶ leased ── result upload ──▶ done
//	   ▲                   │
//	   └── deadline passed ┘  (requeue; counted, re-leased to anyone)
//
// A lease carries a deadline; workers extend it by heartbeating. A
// worker that is SIGKILLed, partitioned or wedged simply stops
// heartbeating, its leases expire, and the tasks are re-leased — no
// worker registration, no failure detector beyond the deadline.
//
// Correctness under re-leases and duplicate uploads comes from the
// determinism contract of dsa.Domain: a task's values are a pure
// function of the spec and the task identity, so any two honest
// computations of one task agree byte-for-byte. Result ingest is
// therefore idempotent — the first upload wins, is journalled through
// the internal/job checkpoint format (one manifest line per task, the
// lines of one upload body in one synced, group-committed append), and
// later duplicates are acknowledged and dropped.
// A grid checkpoint directory is interchangeable with a local one:
// job.Load, dsa-report and a local -resume all read it.
//
// The wire API is JSON over HTTP, rooted at /v1; its routes are declared
// once, in http.go's table, for the server and the client alike.
//
// Production hardening: every error (wrong path, wrong method, bad
// body, unknown job) is structured JSON; request bodies are bounded
// (413 past the cap); an optional shared-secret bearer token guards the
// mutating endpoints; optional per-client token-bucket rate limiting
// answers 429 + Retry-After; and every response carries an
// X-Request-ID that the coordinator's log records repeat as rid.
//
// With CoordinatorOptions.Cache set, the coordinator also memoizes:
// every ingested result feeds a cross-job content-addressed score
// cache (internal/cache), and a task whose scores are already known —
// from a previous job, a checkpoint restore, or an overlapping spec —
// is served as an ingested result instead of ever being dispatched.
package grid

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
)

// silent is what a nil Logger option resolves to: it enables no level,
// so no record is ever built.
var silent = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// orSilent is l, or silent for nil.
func orSilent(l *slog.Logger) *slog.Logger {
	if l == nil {
		return silent
	}
	return l
}

// JobSummary is one row of the jobs listing.
type JobSummary struct {
	ID         string `json:"id"`
	Domain     string `json:"domain"`
	TotalTasks int    `json:"total_tasks"`
	DoneTasks  int    `json:"done_tasks"`
	Priority   int    `json:"priority"`
	Complete   bool   `json:"complete"`
}

// JobDetail is a summary plus the spec payload (job.EncodeSpec bytes)
// a worker needs to execute leases.
type JobDetail struct {
	JobSummary
	Spec json.RawMessage `json:"spec"`
}

type jobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}

// CreateJobRequest registers a sweep with the coordinator. Spec is a
// job.EncodeSpec payload; job creation is idempotent — the job ID
// derives from the spec bytes, so re-POSTing the same sweep returns
// the existing job.
type CreateJobRequest struct {
	Spec json.RawMessage `json:"spec"`
	// Priority is the job's fair-share scheduling weight: against other
	// concurrent jobs it receives leased tasks in proportion to this
	// weight. 0 (or absent) means 1. Re-posting an existing job with a
	// different priority updates the weight.
	Priority int `json:"priority,omitempty"`
}

// LeaseRequest asks for up to MaxTasks pending tasks on behalf of
// Worker (an opaque identity used only to match heartbeats to leases).
// Job scopes the request: one job's tasks, or with "" the tasks of
// whichever job the fair scheduler picks (POST /v1/jobs/{id}/lease is the
// same request with the scope in the path).
type LeaseRequest struct {
	Worker   string `json:"worker"`
	MaxTasks int    `json:"max_tasks"`
	Job      string `json:"job,omitempty"`
}

// LeaseTask is one leased task: the job.Task coordinates plus the
// lease TTL the worker must heartbeat within.
type LeaseTask struct {
	Task    string `json:"task"`
	Measure string `json:"measure"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	TTLMS   int64  `json:"ttl_ms"`
}

// LeaseResponse carries the granted leases, all of Job (one call serves
// one job, so a worker computes a batch against a single spec). Complete
// means nothing is left in the request's scope — the job is done, or
// every registered job is — and workers should exit rather than poll
// again. Draining means the coordinator is shutting down gracefully and
// grants nothing; workers should exit and reconnect to the restarted
// coordinator.
type LeaseResponse struct {
	Job      string      `json:"job,omitempty"`
	Tasks    []LeaseTask `json:"tasks"`
	Complete bool        `json:"complete"`
	Draining bool        `json:"draining,omitempty"`
}

// DrainResponse answers POST /v1/drain: the coordinator stops granting
// leases and will exit once InFlight leases settle (upload or expire).
type DrainResponse struct {
	Draining bool `json:"draining"`
	InFlight int  `json:"in_flight"`
}

// HeartbeatRequest extends Worker's leases on Tasks.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Tasks  []string `json:"tasks"`
}

// HeartbeatResponse reports which leases were renewed and which are
// lost (expired and possibly re-leased, or already done) — the worker
// should stop heartbeating lost tasks but may still upload a finished
// result, which ingest handles idempotently.
type HeartbeatResponse struct {
	Renewed []string `json:"renewed"`
	Lost    []string `json:"lost"`
}

// WireFloats is []float64 that survives JSON: non-finite values,
// which encoding/json rejects but a domain may legitimately produce,
// use the shared canonical tokens (see dsa.JSONFloats — the same
// codec the checkpoint manifest lines use, so grid and local runs agree
// byte-for-byte on disk too).
type WireFloats = dsa.JSONFloats

// TaskResult is one finished task's values inside a ResultsUpload.
type TaskResult struct {
	Task      string     `json:"task"`
	Values    WireFloats `json:"values"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

// ResultsUpload is the body of POST /v1/jobs/{id}/results: the tasks of
// one execution unit of Worker's lease — the whole lease when it was one
// joint call — and whatever else landed while an earlier body was in
// flight. The coordinator checkpoints and journals the body's tasks
// together and answers one ResultAck per entry, in order; a malformed
// entry refuses the whole body.
type ResultsUpload struct {
	Worker  string       `json:"worker"`
	Results []TaskResult `json:"results"`
}

// ResultsAck answers a ResultsUpload: Acks[i] is the verdict on
// Results[i].
type ResultsAck struct {
	Acks []ResultAck `json:"acks"`
}

// ResultUpload is one task's result from one worker: the argument of
// Coordinator.Ingest, the one-element form of a ResultsUpload.
type ResultUpload struct {
	Worker    string
	Task      string
	Values    WireFloats
	ElapsedMS int64
}

// ScoresWire is dsa.Scores in grid wire form: the same shape, with
// score vectors as WireFloats so non-finite values round-trip.
type ScoresWire struct {
	Domain string                `json:"domain"`
	Points []core.Point          `json:"points"`
	Raw    map[string]WireFloats `json:"raw"`
	Values map[string]WireFloats `json:"values"`
}

func scoresToWire(s *dsa.Scores) ScoresWire {
	w := ScoresWire{
		Domain: s.Domain, Points: s.Points,
		Raw:    make(map[string]WireFloats, len(s.Raw)),
		Values: make(map[string]WireFloats, len(s.Values)),
	}
	for m, v := range s.Raw {
		w.Raw[m] = WireFloats(v)
	}
	for m, v := range s.Values {
		w.Values[m] = WireFloats(v)
	}
	return w
}

func (w ScoresWire) scores() *dsa.Scores {
	s := &dsa.Scores{
		Domain: w.Domain, Points: w.Points,
		Raw:    make(map[string][]float64, len(w.Raw)),
		Values: make(map[string][]float64, len(w.Values)),
	}
	for m, v := range w.Raw {
		s.Raw[m] = []float64(v)
	}
	for m, v := range w.Values {
		s.Values[m] = []float64(v)
	}
	return s
}

// ResultAck acknowledges one uploaded task. Duplicate marks a task that
// was already done (the upload was dropped; determinism makes it
// equivalent).
type ResultAck struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// ProgressSnapshot is the live view of a job served by /progress and
// pushed line-by-line on the streaming variant.
type ProgressSnapshot struct {
	JobID         string `json:"job_id"`
	Total         int    `json:"total_tasks"`
	Done          int    `json:"done_tasks"`
	Leased        int    `json:"leased_tasks"`
	Pending       int    `json:"pending_tasks"`
	Requeues      int    `json:"requeues"`         // leases that expired back to pending
	Workers       int    `json:"workers"`          // workers holding a live lease
	CacheTasks    int    `json:"cache_tasks"`      // tasks served from the score cache, never dispatched
	LeasesGranted int    `json:"leases_granted"`   // tasks handed out on leases, re-leases included
	Priority      int    `json:"priority"`         // fair-share weight
	Audits        int    `json:"audits,omitempty"` // open result audits still gating completion
	Complete      bool   `json:"complete"`
}

// CacheStatsResponse is served by GET /v1/cache: the coordinator's
// cross-job score cache counters (see dsa.CacheStats). Enabled is
// false when the coordinator runs without a cache — the counters are
// then all zero.
type CacheStatsResponse struct {
	Enabled bool `json:"enabled"`
	dsa.CacheStats
}

type errorBody struct {
	Error string `json:"error"`
}

// Wire headers: request correlation and the Byzantine-tolerance plumbing.
const (
	// HeaderRequestID carries a call's request ID, both ways: the client
	// sends one per call, the coordinator keeps it if it is 1–64 of
	// A-Z a-z 0-9 . _ - (else mints a fresh one), puts it on the response
	// and on every log record of the request's work.
	HeaderRequestID = "X-Request-ID"
	// HeaderRetryAttempt marks client retries: absent on a call's first
	// attempt, "1", "2", … on retries, which resend the same request ID.
	HeaderRetryAttempt = "X-Retry-Attempt"
	// HeaderBodySHA256 carries the lowercase hex SHA-256 of the request
	// body. The coordinator verifies it before decoding, so a body
	// corrupted in transit is rejected (400 + HeaderCorruptBody) and
	// resent — instead of being recorded and later mistaken for a
	// Byzantine result when an audit re-computes the task.
	HeaderBodySHA256 = "X-Body-Sha256"
	// HeaderCorruptBody marks a 400 as transport corruption: the request
	// as sent was fine, resending it is the fix.
	HeaderCorruptBody = "X-Grid-Corrupt-Body"
	// HeaderQuarantined marks a 429 as a quarantine verdict rather than
	// rate limiting: retrying is pointless, the worker should exit.
	HeaderQuarantined = "X-Grid-Quarantined"
)

// ErrWorkerQuarantined surfaces a quarantine verdict to client callers
// (errors.Is-able): the coordinator refuses this worker's leases,
// heartbeats and uploads, permanently.
var ErrWorkerQuarantined = errors.New("grid: worker quarantined by coordinator")

// --- HTTP client helpers, shared by the worker, the facade and
// dsa-report's -coordinator mode. ---
//
// Every call is bounded and retried: a request either completes within
// the client timeout or fails, and transient failures (transport
// errors, 5xx) back off and retry a few times before surfacing. A hung
// or briefly unreachable coordinator therefore slows a client down; it
// can never wedge one forever — callers that pass their own
// *http.Client keep their own timeout policy, nil callers get
// DefaultHTTPTimeout.

const (
	// DefaultHTTPTimeout bounds one request end to end (connect,
	// request, full response body) for clients that do not inject
	// their own http.Client. Generous because a result upload can
	// carry a large task's values; far from infinite because the
	// default it replaces (http.DefaultClient, no timeout at all)
	// let a hung coordinator wedge workers and reports forever.
	DefaultHTTPTimeout = 60 * time.Second

	// clientAttempts and clientRetryBase shape the retry schedule:
	// exponential ceilings of 250ms, 500ms, 1s between the 4 attempts
	// — enough to ride out a coordinator restart without masking a
	// real outage for long. The actual sleep before each retry is
	// *full jitter* over the ceiling (uniform in [0, ceiling]): when a
	// whole fleet of workers gets 5xx/429 from the same hiccup at the
	// same instant, deterministic backoff would march them back in
	// lockstep and re-create the stampede every period; jitter spreads
	// the retries across the window.
	clientAttempts  = 4
	clientRetryBase = 250 * time.Millisecond

	// maxRetryAfter caps how long a server-sent Retry-After can stall a
	// retry loop: a coordinator asking for an hour (quarantine) should
	// surface as an error via the attempt budget, not a silent hour.
	maxRetryAfter = 30 * time.Second
)

// retryDelay computes the sleep before retry attempt n (n >= 1): full
// jitter over an exponential ceiling. A package variable so tests can
// pin or record it.
var retryDelay = func(attempt int) time.Duration {
	ceiling := clientRetryBase << (attempt - 1)
	return time.Duration(rand.Int64N(int64(ceiling) + 1))
}

// defaultClient returns the client used when callers pass nil.
func defaultClient() *http.Client {
	return &http.Client{Timeout: DefaultHTTPTimeout}
}

// authTransport injects the grid shared-secret bearer token into every
// request it carries.
type authTransport struct {
	token string
	base  http.RoundTripper
}

func (t *authTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// Per the RoundTripper contract, the request must not be mutated.
	clone := req.Clone(req.Context())
	clone.Header.Set("Authorization", "Bearer "+t.token)
	return t.base.RoundTrip(clone)
}

// AuthTransport wraps base (nil = http.DefaultTransport) so every
// request carries `Authorization: Bearer token` — the client half of
// CoordinatorOptions.AuthToken. An empty token returns base unchanged.
func AuthTransport(token string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if token == "" {
		return base
	}
	return &authTransport{token: token, base: base}
}

// NewClient returns an *http.Client with the default timeout that
// authenticates with token (which may be empty for an open grid).
func NewClient(token string) *http.Client {
	return &http.Client{Timeout: DefaultHTTPTimeout, Transport: AuthTransport(token, nil)}
}

// callInfo reports how one call actually went on the wire — the request
// ID it carried and how many attempts it took. Returned rather than
// hooked so in-process multi-worker tests (and the workers themselves)
// never share mutable state.
type callInfo struct {
	requestID string
	attempts  int
}

// newRequestID returns 8 random bytes as hex: what a client sends with a
// call and what the coordinator mints for a request that came without a
// usable one. crypto/rand never fails on the platforms we run on; on the
// impossible path the constant at least stays greppable.
func newRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// call issues one JSON request — method and url as the route table
// declares them (routeURL), in the body if non-nil, the answer decoded
// into out if non-nil — with bounded retries; a nil client gets
// DefaultHTTPTimeout. Retrying every verb is safe against this API by
// design: job creation and result upload are idempotent, lease
// duplicates only cost a lease TTL, and heartbeats are refreshes.
// Non-retryable failures (4xx — the request itself is wrong) surface
// immediately; retries that run out surface as an unreachableError. One
// request ID is generated per call and sent on every attempt (with
// retries marked via HeaderRetryAttempt), so the
// coordinator's access log and the worker's trace journal name the same
// rid for the same call — a task is traceable across both sides of the
// wire.
func call(ctx context.Context, client *http.Client, method, url string, in, out any) (callInfo, error) {
	if client == nil {
		client = defaultClient()
	}
	info := callInfo{requestID: newRequestID()}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return info, err
		}
	}
	var lastErr error
	var serverPause time.Duration
	for attempt := 0; attempt < clientAttempts; attempt++ {
		if attempt > 0 {
			// When the server named a pause (Retry-After on 429/503),
			// honor it exactly: jittering under it would retry into the
			// same closed window, padding past it wastes the fleet's
			// time. Otherwise: full jitter over the exponential ceiling.
			delay := retryDelay(attempt)
			if serverPause > 0 {
				delay = serverPause
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return info, ctx.Err()
			}
		}
		serverPause = 0
		info.attempts = attempt + 1
		var reqBody io.Reader
		if in != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, reqBody)
		if err != nil {
			return info, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
			sum := sha256.Sum256(body)
			req.Header.Set(HeaderBodySHA256, hex.EncodeToString(sum[:]))
		}
		req.Header.Set(HeaderRequestID, info.requestID)
		if attempt > 0 {
			req.Header.Set(HeaderRetryAttempt, strconv.Itoa(attempt))
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return info, ctx.Err()
			}
			lastErr = err // transport error (refused, reset, timeout): retry
			continue
		}
		retryable, retryAfter, err := decodeResponse(resp, url, out)
		resp.Body.Close()
		if err == nil || !retryable {
			return info, err
		}
		serverPause = min(retryAfter, maxRetryAfter)
		lastErr = err
	}
	return info, unreachableError{fmt.Errorf("grid: %s: giving up after %d attempts: %w", url, clientAttempts, lastErr)}
}

// unreachableError is a call that got no answer to act on: every attempt
// failed in transport or was answered 5xx, 429 or a corrupt-body 400. It
// is the one failure WorkerOptions.Reconnect rides out.
type unreachableError struct{ error }

func (e unreachableError) Unwrap() error { return e.error }

// unreachable reports whether err says the coordinator could not be
// reached, as opposed to answering no.
func unreachable(err error) bool { return errors.As(err, new(unreachableError)) }

// decodeResponse reads and decodes one response, classifying failures:
// 5xx, 429 (rate limited), and checksum-rejected bodies (transport
// corruption — resending re-rolls the dice) are transient (retryable),
// with any Retry-After seconds the server sent passed back as the
// pacing to honor; a quarantine-marked 429 is a verdict, surfaced as
// ErrWorkerQuarantined and never retried; other 4xx and
// malformed-success bodies are not retryable either.
func decodeResponse(resp *http.Response, url string, out any) (retryable bool, retryAfter time.Duration, err error) {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return true, 0, fmt.Errorf("grid: read %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		if resp.Header.Get(HeaderQuarantined) != "" {
			return false, 0, fmt.Errorf("%w (%s, HTTP %d)", ErrWorkerQuarantined, url, resp.StatusCode)
		}
		retryable = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests ||
			(resp.StatusCode == http.StatusBadRequest && resp.Header.Get(HeaderCorruptBody) != "")
		if retryable {
			if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
				retryAfter = time.Duration(s) * time.Second
			}
		}
		var eb errorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return retryable, retryAfter, fmt.Errorf("grid: %s: %s (HTTP %d)", url, eb.Error, resp.StatusCode)
		}
		return retryable, retryAfter, fmt.Errorf("grid: %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		return false, 0, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, 0, fmt.Errorf("grid: decode %s: %w", url, err)
	}
	return false, 0, nil
}

// ListJobs fetches the coordinator's job summaries. Like every client
// call here, a nil client uses one with DefaultHTTPTimeout.
func ListJobs(ctx context.Context, client *http.Client, baseURL string) ([]JobSummary, error) {
	var resp jobsResponse
	_, err := call(ctx, client, http.MethodGet, routeURL(baseURL, pathJobs, ""), nil, &resp)
	return resp.Jobs, err
}

// FetchScores downloads a completed job's assembled scores. An
// incomplete job is an error (the coordinator answers 409 with its
// progress).
func FetchScores(ctx context.Context, client *http.Client, baseURL, jobID string) (*dsa.Scores, error) {
	var w ScoresWire
	if _, err := call(ctx, client, http.MethodGet, routeURL(baseURL, pathResults, jobID), nil, &w); err != nil {
		return nil, err
	}
	return w.scores(), nil
}

// FetchCacheStats fetches the coordinator's score cache counters
// (dsa-report's `cache -coordinator` view).
func FetchCacheStats(ctx context.Context, client *http.Client, baseURL string) (CacheStatsResponse, error) {
	var resp CacheStatsResponse
	_, err := call(ctx, client, http.MethodGet, routeURL(baseURL, pathCache, ""), nil, &resp)
	return resp, err
}
