package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"
)

// ErrInjected is the sentinel under every fault this package fabricates
// (dropped requests, injected write failures); errors.Is(err,
// ErrInjected) distinguishes scheduled chaos from real trouble in test
// assertions and logs.
var ErrInjected = errors.New("chaos: injected fault")

// Transport is an http.RoundTripper that subjects every request to a
// seeded fault Schedule before (maybe) forwarding it to the base
// transport. Grid clients take it via http.Client.Transport, composing
// with grid.AuthTransport.
//
// Fault semantics, in the order applied:
//
//	drop    — the request never reaches the wire; the caller sees a
//	          transport error (retryable by the grid client).
//	err500  — a synthetic 500 is fabricated without touching the
//	          network (retryable; carries an X-Chaos header).
//	delay   — the request is held for DelayBy, honoring ctx cancel.
//	corrupt — one request-body byte is flipped in flight, which the
//	          coordinator's X-Body-Sha256 check rejects as transport
//	          corruption (retryable, and the retry re-draws its fate).
//	dup     — the request is transmitted twice back to back; the grid
//	          protocol's idempotent ingest absorbs the duplicate.
type Transport struct {
	sched *Schedule
	base  http.RoundTripper
	log   *slog.Logger
}

// NewTransport wraps base (nil = http.DefaultTransport) with the fault
// schedule for cfg. logger (nil = silent) narrates every injected fault.
func NewTransport(cfg Config, base http.RoundTripper, logger *slog.Logger) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	if logger == nil {
		// Enables no level, so no record is ever built.
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	return &Transport{sched: NewSchedule(cfg), base: base, log: logger}
}

// Schedule exposes the underlying decision stream (tests assert on
// Drawn to prove the schedule ran).
func (t *Transport) Schedule() *Schedule { return t.sched }

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.sched.Next()
	if d != (Decision{}) {
		t.log.Info("chaos fault injected", "method", req.Method, "path", req.URL.Path, "fault", d)
	}
	body, err := drainBody(req)
	if err != nil {
		return nil, err
	}
	if d.Drop {
		return nil, fmt.Errorf("%w: dropped %s %s", ErrInjected, req.Method, req.URL.Path)
	}
	if d.Err500 {
		return synthetic500(req), nil
	}
	if d.Delay > 0 {
		timer := time.NewTimer(d.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if d.Corrupt && len(body) > 0 {
		body = bytes.Clone(body)
		body[len(body)/2] ^= 0xff
	}
	if d.Dup {
		if resp, err := t.base.RoundTrip(withBody(req, body)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return t.base.RoundTrip(withBody(req, body))
}

// drainBody reads the full request body so the transport can corrupt
// or re-send it. Grid requests are small JSON payloads.
func drainBody(req *http.Request) ([]byte, error) {
	if req.Body == nil {
		return nil, nil
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("chaos: read request body: %w", err)
	}
	return body, nil
}

// withBody clones req with the given body, preserving idempotent
// re-transmission (both the dup fault and net/http retries).
func withBody(req *http.Request, body []byte) *http.Request {
	r := req.Clone(req.Context())
	if body == nil {
		r.Body = nil
		return r
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	r.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	return r
}

func synthetic500(req *http.Request) *http.Response {
	const msg = `{"error":"chaos: injected 500"}`
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	h.Set("X-Chaos", "err500")
	return &http.Response{
		Status:        "500 Internal Server Error (chaos)",
		StatusCode:    http.StatusInternalServerError,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(msg)),
		ContentLength: int64(len(msg)),
		Request:       req,
	}
}
