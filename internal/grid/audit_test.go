package grid

// The Byzantine-tolerance contract — with -audit-rate on, a completed
// task's recorded value is silently re-computed by a different worker and
// byte-compared; agreement verifies, disagreement arbitrates by value
// voting, and a worker caught lying is quarantined, its unaudited work
// invalidated and re-queued — is FuzzSchedule's invariants 4 to 6. Here
// are the value stand-ins and lease helpers the package's tests share,
// and the wire shape of a verdict.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/job"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	return strings.NewReader(mustJSON(t, v))
}

// quarantine bans a worker as an operator would: an audit verdict's
// mechanics (429'd leases and uploads, unaudited work re-queued).
func quarantine(c *Coordinator, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quarantineLocked(name, "operator request")
}

// honestVals is the stand-in for a correct computation: a value vector
// that is a pure function of the task coordinates, like the real
// domains guarantee.
func honestVals(lt LeaseTask) []float64 {
	out := make([]float64, lt.Hi-lt.Lo)
	for i := range out {
		out[i] = float64(lt.Lo + i)
	}
	return out
}

func lyingVals(lt LeaseTask) []float64 {
	out := honestVals(lt)
	out[0]++
	return out
}

func auditSpec(t *testing.T, points int) job.Spec {
	t.Helper()
	all := gossip.Domain().Space().Enumerate()
	return job.Spec{Domain: gossip.Domain(), Points: all[:points], Cfg: tinyGossipCfg(), Chunk: 2}
}

func mustLease(t testing.TB, c *Coordinator, id, worker string, wantTasks int) LeaseResponse {
	t.Helper()
	resp, err := c.Lease(context.Background(), id, worker, 10)
	if err != nil {
		t.Fatalf("lease %s: %v", worker, err)
	}
	if len(resp.Tasks) != wantTasks {
		t.Fatalf("lease %s: got %d tasks, want %d", worker, len(resp.Tasks), wantTasks)
	}
	return resp
}

// leaseUpTo leases job id's tasks to worker call after call, each capped
// at what is still missing, until it holds n or a grant comes back empty:
// a worker with no ingested task is granted one chunk group a call.
func leaseUpTo(t testing.TB, c *Coordinator, id, worker string, n int) []LeaseTask {
	t.Helper()
	var held []LeaseTask
	for len(held) < n {
		resp, err := c.Lease(context.Background(), id, worker, n-len(held))
		if err != nil {
			t.Fatalf("lease %s: %v", worker, err)
		}
		if len(resp.Tasks) == 0 {
			break
		}
		held = append(held, resp.Tasks...)
	}
	return held
}

// giveEvidence has worker lease its probe, one chunk group of job id, and
// upload the group's true values, so that its next grant is sized rather
// than a probe. It returns the tasks it completed.
func giveEvidence(t testing.TB, c *Coordinator, spec job.Spec, id, worker string) int {
	t.Helper()
	ctx := context.Background()
	var group []job.Task
	for _, lt := range leaseUpTo(t, c, id, worker, len(spec.Domain.Measures())) {
		group = append(group, job.Task{Measure: lt.Measure, Lo: lt.Lo, Hi: lt.Hi})
	}
	if err := job.ExecTasks(ctx, spec, group, job.ExecOptions{Workers: 1}, func(jt job.Task, vals []float64, _ time.Duration) error {
		_, err := c.Ingest(ctx, id, ResultUpload{Worker: worker, Task: jt.ID(), Values: vals, ElapsedMS: 1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return len(group)
}

func mustProgress(t testing.TB, c *Coordinator, id string) ProgressSnapshot {
	t.Helper()
	snap, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestQuarantineOverHTTP pins the wire shape of a quarantine verdict:
// HTTP 429 with Retry-After and the X-Grid-Quarantined marker, which
// the client surfaces as ErrWorkerQuarantined without retrying.
func TestQuarantineOverHTTP(t *testing.T) {
	spec := auditSpec(t, 2)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	quarantine(coord, "bad")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs/"+id+"/lease", "application/json",
		jsonBody(t, LeaseRequest{Worker: "bad", MaxTasks: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quarantined lease status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(HeaderQuarantined) != "1" {
		t.Fatalf("quarantine response headers = %v, want Retry-After and %s", resp.Header, HeaderQuarantined)
	}

	err = Work(context.Background(), srv.URL, id, WorkerOptions{
		Name: "bad", Workers: 1, Reconnect: time.Minute, // reconnect must NOT mask a verdict
	})
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined Work: err = %v, want ErrWorkerQuarantined", err)
	}
}
