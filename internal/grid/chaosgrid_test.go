package grid

// Failure-injection coverage at the grid boundary: upload body
// checksums catch transport corruption server-side, lease timing is
// immune to wall-clock skew between coordinator and workers, and a
// worker behind a seeded fault-injecting transport (drops, delays,
// duplicates, corruption, spurious 5xx) still finishes a sweep
// byte-identical to the clean run.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestUploadChecksumServerSide: a body whose X-Body-Sha256 does not
// match is refused with the corrupt-body marker (so clients retry);
// a matching checksum — and, for compatibility, no checksum at all —
// is accepted.
func TestUploadChecksumServerSide(t *testing.T) {
	spec := auditSpec(t, 2)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	lease, err := coord.Lease(context.Background(), id, "w1", 2)
	if err != nil {
		t.Fatal(err)
	}
	lt := lease.Tasks[0]
	body := mustJSON(t, ResultsUpload{Worker: "w1", Results: []TaskResult{{Task: lt.Task, Values: honestVals(lt)}}})
	post := func(body, sum string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/"+id+"/results", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if sum != "" {
			req.Header.Set(HeaderBodySHA256, sum)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	wrong := sha256.Sum256([]byte(body + "corrupted"))
	resp := post(body, hex.EncodeToString(wrong[:]))
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(HeaderCorruptBody) == "" {
		t.Fatalf("mismatched checksum: status %d headers %v, want 400 with %s", resp.StatusCode, resp.Header, HeaderCorruptBody)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 0 {
		t.Fatalf("corrupted upload was ingested: %+v", snap)
	}

	right := sha256.Sum256([]byte(body))
	if resp := post(body, hex.EncodeToString(right[:])); resp.StatusCode != http.StatusOK {
		t.Fatalf("matching checksum: status %d, want 200", resp.StatusCode)
	}
	lt2 := lease.Tasks[1]
	body2 := mustJSON(t, ResultsUpload{Worker: "w1", Results: []TaskResult{{Task: lt2.Task, Values: honestVals(lt2)}}})
	if resp := post(body2, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("checksum-less upload: status %d, want 200 (header is optional)", resp.StatusCode)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 2 {
		t.Fatalf("after valid uploads: %+v, want 2 done", snap)
	}
}

// TestClockSkewImmunity: lease deadlines and expiry run purely on the
// coordinator's own clock, and the wire carries only relative TTLs —
// so a worker whose wall clock is ten minutes off (either way,
// simulated by skewing the coordinator against the worker's real
// clock) sees no spurious expiries and finishes byte-identical.
func TestClockSkewImmunity(t *testing.T) {
	spec := auditSpec(t, 4)
	want := wantScores(t, spec)
	for name, offset := range map[string]time.Duration{
		"worker 10m ahead":  -10 * time.Minute,
		"worker 10m behind": 10 * time.Minute,
	} {
		t.Run(name, func(t *testing.T) {
			coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 30 * time.Second})
			defer coord.Close()
			coord.now = func() time.Time { return time.Now().Add(offset) }
			id, err := coord.AddJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			if err := Work(context.Background(), srv.URL, id, WorkerOptions{Name: "skewed", Workers: 2}); err != nil {
				t.Fatal(err)
			}
			snap := mustProgress(t, coord, id)
			if !snap.Complete || snap.Requeues != 0 {
				t.Fatalf("skewed run: %+v, want complete with zero spurious requeues", snap)
			}
			got, err := coord.WaitComplete(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Fatal("scores under clock skew differ from single-process job.Run")
			}
		})
	}
}

// TestChaosTransportSweepCompletes: the deterministic fault harness
// end to end — every request the worker makes may be dropped, delayed,
// duplicated, corrupted or answered 500, and the sweep still converges
// byte-identical because every failure mode maps to a retry path
// (checksum reject, idempotent ingest, lease expiry).
func TestChaosTransportSweepCompletes(t *testing.T) {
	spec := gossipSpec(t)
	want := wantScores(t, spec)

	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	cfg := chaos.Config{
		Seed: 7, Drop: 0.05, Delay: 0.2, DelayBy: 5 * time.Millisecond,
		Dup: 0.05, Corrupt: 0.05, Err500: 0.05,
	}
	err = Work(context.Background(), srv.URL, id, WorkerOptions{
		Name: "stormy", Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond,
		Reconnect: 30 * time.Second,
		Client:    &http.Client{Transport: chaos.NewTransport(cfg, nil, nil)},
	})
	if err != nil {
		t.Fatalf("worker under chaos transport: %v", err)
	}
	got, err := coord.WaitComplete(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("scores under transport chaos differ from single-process job.Run")
	}
}
