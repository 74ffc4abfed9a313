package grid

// Grid parity for the delivery domain: the acceptance bar of the
// third vertical is that a grid-run sweep — coordinator + two workers
// over HTTP — serialises byte-identically to a single-process job.Run
// with zero delivery-specific engine code. The worker resolves the
// domain from the wire spec through the registry, so this also pins
// that the delivery registration reaches the grid's seam.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/job"
)

func deliverySpec(t *testing.T) job.Spec {
	t.Helper()
	pts := dsa.StridePoints(delivery.Domain(), 36)
	if len(pts) != 16 {
		t.Fatalf("subset has %d points, want 16", len(pts))
	}
	cfg := dsa.Config{Peers: 6, Rounds: 200, PerfRuns: 2, EncounterRuns: 1, Seed: 11}
	return job.Spec{Domain: delivery.Domain(), Points: pts, Cfg: cfg, Chunk: 2}
}

func TestGridDeliveryTwoWorkersMatchRunSweep(t *testing.T) {
	spec := deliverySpec(t)
	want := wantScores(t, spec)

	coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: 2 * time.Second})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = Work(ctx, srv.URL, "", WorkerOptions{Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond})
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	got, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("2-worker delivery grid scores are not byte-identical to single-process job.Run")
	}
	fetched, err := FetchScores(ctx, nil, srv.URL, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, fetched) != mustJSON(t, want) {
		t.Fatal("delivery scores fetched over HTTP differ from single-process job.Run")
	}
}

// TestDefaultLeaseIsOneChunkGroup: grants follow Spec.Tasks, which is
// chunk-major, so the uncapped first lease of a delivery job — a probe,
// one chunk group — is the four measures of one chunk, the group a
// worker's ExecTasks scores in one joint call.
func TestDefaultLeaseIsOneChunkGroup(t *testing.T) {
	spec := deliverySpec(t)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Lease(context.Background(), id, "w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	var measures []string
	for _, lt := range lease.Tasks {
		if lt.Lo != 0 || lt.Hi != spec.Chunk {
			t.Errorf("leased %s, want only tasks of chunk [0,%d)", lt.Task, spec.Chunk)
		}
		measures = append(measures, lt.Measure)
	}
	if !slices.Equal(measures, delivery.Domain().Measures()) {
		t.Fatalf("first lease covers measures %v, want %v", measures, delivery.Domain().Measures())
	}
}

// TestGridDeliveryAnyLeaseSizeMatchesRun: a worker's lease cap that splits
// chunk groups (1, 3), or the coordinator's sized grant (0), changes which
// tasks a worker scores jointly, never the CSV.
func TestGridDeliveryAnyLeaseSizeMatchesRun(t *testing.T) {
	spec := deliverySpec(t)
	csv := func(s *dsa.Scores) string {
		var buf bytes.Buffer
		if err := dsa.WriteCSV(&buf, spec.Domain, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := csv(wantScores(t, spec))
	for _, perLease := range []int{1, 3, 0} {
		coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: 2 * time.Second})
		id, err := coord.AddJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(coord.Handler())
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = Work(ctx, srv.URL, id, WorkerOptions{Workers: 1, TasksPerLease: perLease, Poll: 20 * time.Millisecond})
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("TasksPerLease %d, worker %d: %v", perLease, w, err)
			}
		}
		got, err := coord.WaitComplete(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if csv(got) != want {
			t.Fatalf("TasksPerLease %d: grid CSV differs from job.Run's", perLease)
		}
		srv.Close()
		coord.Close()
	}
}
