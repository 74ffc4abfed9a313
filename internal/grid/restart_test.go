package grid

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/delivery"
	"repro/internal/job"
)

// finishedDeliveryJob leaves a finished grid job in a fresh checkpoint
// root: the whole delivery space at the quick preset, eight points a
// task (288 tasks), every task uploaded by one worker with stand-in
// values. A restart checks no value against the domain, so they only
// have to have the right count.
func finishedDeliveryJob(tb testing.TB) (string, job.Spec) {
	tb.Helper()
	d := delivery.Domain()
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		tb.Fatal(err)
	}
	spec := job.Spec{Domain: d, Points: d.Space().Enumerate(), Cfg: cfg, Chunk: 8}
	dir := tb.TempDir()
	c := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer c.Close()
	id, err := c.AddJob(spec)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, worker := context.Background(), "worker-1" // a name long enough to be its own allocation
	for {
		resp, err := c.Lease(ctx, id, worker, 64)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Complete {
			return dir, spec
		}
		if len(resp.Tasks) == 0 {
			tb.Fatal("an unfinished job granted nothing")
		}
		if _, err := c.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: results(resp.Tasks, honestVals)}); err != nil {
			tb.Fatal(err)
		}
	}
}

// restartFinished is what a restarted coordinator does to hand back a
// finished job: open the checkpoint root, register the job, assemble.
func restartFinished(tb testing.TB, dir string, spec job.Spec) {
	c := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer c.Close()
	id, err := c.AddJob(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if s, ok, err := c.Scores(id); err != nil || !ok || len(s.Points) != len(spec.Points) {
		tb.Fatalf("restarted job: complete %v, err %v", ok, err)
	}
}

// BenchmarkRestartFinishedJob times the restart of a finished job, what
// the perf ledger's reload_s of delivery-grid-durable spends before its
// CSV.
func BenchmarkRestartFinishedJob(b *testing.B) {
	dir, spec := finishedDeliveryJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		restartFinished(b, dir, spec)
	}
}

// BenchmarkResultsCSV serves a finished job's CSV over and over, as a
// coordinator answers repeated GET /v1/jobs/{id}/results?format=csv: the
// first answer renders every point's fixed cells, the rest copy them.
func BenchmarkResultsCSV(b *testing.B) {
	dir, spec := finishedDeliveryJob(b)
	c := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer c.Close()
	id, err := c.AddJob(spec)
	if err != nil {
		b.Fatal(err)
	}
	h, req := c.Handler(), httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/results?format=csv", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		w := httptest.NewRecorder()
		if h.ServeHTTP(w, req); w.Code != http.StatusOK {
			b.Fatalf("results: HTTP %d", w.Code)
		}
	}
}
