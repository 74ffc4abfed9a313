package grid

// TraceShipper streams a worker's span journal to its coordinator.
// It tails the journal file the recorder appends to — flushing the
// recorder first so every span recorded so far is on disk — and
// uploads complete-line chunks with their byte offset. The ack's Have
// is authoritative: the shipper resumes from wherever the coordinator
// says its collected copy ends, so retries, duplicate sends and
// coordinator restarts all converge without ever duplicating a span.

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultShipInterval is the incremental flush cadence of
// TraceShipper.Run.
const DefaultShipInterval = 2 * time.Second

// TraceShipperOptions configures a TraceShipper.
type TraceShipperOptions struct {
	// Job scopes the collected journal on the coordinator. "" files it
	// under the shared fleet scope (multi-job workers trace every job
	// into one journal).
	Job string
	// Client is the HTTP client; nil = NewClient(""). Against a
	// coordinator with CoordinatorOptions.AuthToken set, pass
	// NewClient(token).
	Client *http.Client
	// Interval is the Run cadence; 0 = DefaultShipInterval.
	Interval time.Duration
	// Logger, if non-nil, receives ship errors from Run.
	Logger *slog.Logger

	// chunkBytes bounds one upload body: obs.DefaultChunkBytes to every
	// caller (the zero value), smaller only in this package's tests.
	chunkBytes int
}

// TraceShipper ships one recorder's journal. Create with
// NewTraceShipper, run Run in a goroutine alongside Work, and call
// Ship once after Work returns for the final drain flush.
type TraceShipper struct {
	baseURL string
	rec     *obs.Recorder
	path    string
	writer  string
	opts    TraceShipperOptions
	client  *http.Client

	mu     sync.Mutex // serializes Ship passes
	offset int64      // bytes acked by the coordinator
}

// NewTraceShipper builds a shipper for the journal at path, written
// by rec (whose writer name identifies the stream on the
// coordinator).
func NewTraceShipper(baseURL string, rec *obs.Recorder, path string, opts TraceShipperOptions) *TraceShipper {
	client := opts.Client
	if client == nil {
		client = NewClient("")
	}
	opts.Logger = orSilent(opts.Logger)
	return &TraceShipper{
		baseURL: baseURL,
		rec:     rec,
		path:    path,
		writer:  rec.Writer(),
		opts:    opts,
		client:  client,
	}
}

func (s *TraceShipper) interval() time.Duration {
	if s.opts.Interval > 0 {
		return s.opts.Interval
	}
	return DefaultShipInterval
}

// Offset returns how many journal bytes the coordinator has acked.
func (s *TraceShipper) Offset() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offset
}

// Ship flushes the recorder and uploads everything past the acked
// offset, in chunks, until the coordinator has the whole journal; with
// nothing new it sends nothing. Safe to call concurrently with Run;
// overlapping calls serialize.
func (s *TraceShipper) Ship(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.rec.Flush(); err != nil {
		return err
	}
	for {
		data, _, err := obs.ReadChunk(s.path, s.offset, s.opts.chunkBytes)
		if err != nil || len(data) == 0 {
			return err
		}
		var ack TraceAck
		up := TraceUpload{Writer: s.writer, Job: s.opts.Job, Offset: s.offset, Data: data}
		if _, err := call(ctx, s.client, http.MethodPost, routeURL(s.baseURL, pathTrace, ""), up, &ack); err != nil {
			return err
		}
		// Resume from wherever the coordinator says its copy ends: end
		// of our chunk normally, earlier after a coordinator restart
		// (rewind and re-ship), later if a twin shipper got there first.
		s.offset = ack.Have
	}
}

// Run ships on a ticker until ctx is cancelled — the incremental
// flush that keeps the coordinator's timeline live during a run.
// Errors are logged and retried next tick; the journal is append-only
// and offsets are acked, so a failed pass loses nothing.
func (s *TraceShipper) Run(ctx context.Context) {
	tick := time.NewTicker(s.interval())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := s.Ship(ctx); err != nil && ctx.Err() == nil {
			s.opts.Logger.Warn("trace ship failed", "worker", s.writer, "err", err)
		}
	}
}
