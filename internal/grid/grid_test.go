package grid

// The grid's contract is the engine's contract, at a distance: a
// coordinator + workers run over HTTP must produce byte-identical
// scores to a single-process job.Run — including when a worker is
// killed mid-sweep and its leases expire — and a grid checkpoint
// directory must be interchangeable with a locally-written one.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
)

func tinyGossipCfg() dsa.Config {
	return dsa.Config{Peers: 8, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}
}

// gossipSubset strides the 216-point gossip space down to 18 points.
func gossipSubset(t testing.TB) []core.Point {
	t.Helper()
	all := gossip.Domain().Space().Enumerate()
	var pts []core.Point
	for i := 0; i < len(all); i += 12 {
		pts = append(pts, all[i])
	}
	return pts
}

func gossipSpec(t testing.TB) job.Spec {
	return job.Spec{Domain: gossip.Domain(), Points: gossipSubset(t), Cfg: tinyGossipCfg(), Chunk: 2}
}

// wantScores is the single-process reference result.
func wantScores(t testing.TB, spec job.Spec) *dsa.Scores {
	t.Helper()
	s, err := job.Run(context.Background(), spec.Domain, spec.Points, spec.Cfg, job.Options{Chunk: spec.Chunk})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// killingTransport forwards requests until killAfter result uploads
// have succeeded, then fails everything — from the coordinator's point
// of view the worker is SIGKILLed: it goes silent instantly, holding
// whatever leases it had.
type killingTransport struct {
	mu        sync.Mutex
	uploads   int
	killAfter int
	dead      bool
}

var errWorkerKilled = errors.New("worker killed")

func (k *killingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		return nil, errWorkerKilled
	}
	k.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/results") {
		k.mu.Lock()
		k.uploads++
		if k.uploads >= k.killAfter {
			k.dead = true
		}
		k.mu.Unlock()
	}
	return resp, err
}

func TestGridTwoWorkersMatchRunSweep(t *testing.T) {
	spec := gossipSpec(t)
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
		t.Fatal("2-worker grid scores are not byte-identical to single-process job.Run")
	}
	fetched, err := FetchScores(ctx, nil, srv.URL, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, fetched) != mustJSON(t, want) {
		t.Fatal("scores fetched over HTTP differ from single-process job.Run")
	}
}

func TestGridWorkerKilledMidSweep(t *testing.T) {
	spec := gossipSpec(t)
	want := wantScores(t, spec)

	dir := t.TempDir()
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: 150 * time.Millisecond, Logger: logs.logger()})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	// One chunk group done first makes doomed's grants sized, not probes,
	// so its cap of 3 is what it gets.
	giveEvidence(t, coord, spec, id, "doomed")
	kill := &killingTransport{killAfter: 1}
	var wg sync.WaitGroup
	var killedErr, survivorErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Leases 3 tasks, uploads one result, then goes silent holding
		// the other two.
		killedErr = Work(ctx, srv.URL, id, WorkerOptions{
			Name: "doomed", Workers: 1, TasksPerLease: 3,
			Client: &http.Client{Transport: kill},
		})
	}()
	go func() {
		defer wg.Done()
		survivorErr = Work(ctx, srv.URL, id, WorkerOptions{
			Name: "survivor", Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond,
		})
	}()
	wg.Wait()

	if killedErr == nil {
		t.Fatal("the doomed worker should have died on its severed connection")
	}
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}
	snap, err := coord.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete {
		t.Fatalf("sweep incomplete after survivor finished: %+v", snap)
	}
	// Its leases end whichever way comes first: moved to the polling
	// survivor past half a TTL, or expired at the TTL.
	if n := leasesEnded(logs.String(), "doomed"); n < 2 {
		t.Fatalf("the dead worker's 2 held leases should have moved or expired, %d did", n)
	}
	got, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("scores after a mid-sweep worker kill are not byte-identical to single-process job.Run")
	}
}

// TestGridCheckpointResume: a coordinator restart on the same directory
// restores completed tasks, and the finished directory is readable by
// job.Load exactly like a local checkpoint.
func TestGridCheckpointResume(t *testing.T) {
	spec := gossipSpec(t)
	want := wantScores(t, spec)
	dir := t.TempDir()
	ctx := context.Background()

	coord1 := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Second})
	id, err := coord1.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	kill := &killingTransport{killAfter: 3}
	err = Work(ctx, srv1.URL, id, WorkerOptions{
		Name: "first-life", Workers: 1, TasksPerLease: 1,
		Client: &http.Client{Transport: kill},
	})
	if err == nil {
		t.Fatal("worker should have died after 3 uploads")
	}
	srv1.Close()
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	coord2 := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Second})
	defer coord2.Close()
	id2, err := coord2.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("spec-derived job ID changed across restarts: %s vs %s", id, id2)
	}
	snap, err := coord2.Progress(id2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done < 3 || snap.Complete {
		t.Fatalf("restart should restore the 3 checkpointed tasks and no more: %+v", snap)
	}

	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()
	if err := Work(ctx, srv2.URL, id2, WorkerOptions{Workers: 2, TasksPerLease: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := coord2.WaitComplete(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("resumed grid scores differ from single-process job.Run")
	}
	loaded, err := job.Load(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, loaded) != mustJSON(t, want) {
		t.Fatal("job.Load of the grid checkpoint differs from single-process job.Run")
	}
}

// TestNonFiniteValuesOverTheWire: encoding/json rejects NaN/±Inf, but
// a domain may produce them; the grid's wire types must round-trip
// them through upload, assembly and the results endpoint.
func TestNonFiniteValuesOverTheWire(t *testing.T) {
	all := gossip.Domain().Space().Enumerate()
	spec := job.Spec{Domain: gossip.Domain(), Points: all[:4], Cfg: tinyGossipCfg(), Chunk: 2}
	coord := NewCoordinator(CoordinatorOptions{})
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.25}
	for i, lt := range leaseUpTo(t, coord, id, "w", 4) {
		vals := make([]float64, lt.Hi-lt.Lo)
		for k := range vals {
			vals[k] = special[(i+k)%len(special)]
		}
		// Through the real HTTP ingest path, not the method.
		var ack ResultsAck
		_, err := call(ctx, srv.Client(), http.MethodPost, routeURL(srv.URL, pathResults, id),
			ResultsUpload{Worker: "w", Results: []TaskResult{{Task: lt.Task, Values: vals}}}, &ack)
		if err != nil {
			t.Fatalf("upload of non-finite values: %v", err)
		}
	}
	got, err := FetchScores(ctx, nil, srv.URL, id)
	if err != nil {
		t.Fatalf("fetch of non-finite scores: %v", err)
	}
	raw := got.Raw[gossip.MeasureRobustness]
	if len(raw) != 4 {
		t.Fatalf("raw robustness has %d values, want 4", len(raw))
	}
	sawNaN, sawInf := false, false
	for _, ms := range []string{gossip.MeasureCoverage, gossip.MeasureRobustness} {
		for _, v := range got.Raw[ms] {
			sawNaN = sawNaN || math.IsNaN(v)
			sawInf = sawInf || math.IsInf(v, 0)
		}
	}
	if !sawNaN || !sawInf {
		t.Fatalf("NaN/Inf did not survive the wire round trip: raw=%v", got.Raw)
	}
}

// TestProgressStream reads the NDJSON stream while tasks complete.
func TestProgressStream(t *testing.T) {
	all := gossip.Domain().Space().Enumerate()
	spec := job.Spec{Domain: gossip.Domain(), Points: all[:4], Cfg: tinyGossipCfg(), Chunk: 2}
	coord := NewCoordinator(CoordinatorOptions{})
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first snapshot on the stream")
	}
	var first ProgressSnapshot
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Complete || first.Total == 0 {
		t.Fatalf("first snapshot should be an incomplete total: %+v", first)
	}

	// Complete every task by direct lease and ingest, grant after grant
	// until one comes back empty; the stream must end with a complete
	// snapshot and EOF.
	for {
		lease, err := coord.Lease(context.Background(), id, "w", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) == 0 {
			break
		}
		for _, lt := range lease.Tasks {
			if _, err := coord.Ingest(context.Background(), id, ResultUpload{Worker: "w", Task: lt.Task, Values: make([]float64, lt.Hi-lt.Lo)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var lastSnap ProgressSnapshot
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &lastSnap); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !lastSnap.Complete || lastSnap.Done != lastSnap.Total {
		t.Fatalf("stream should end on a complete snapshot, got %+v", lastSnap)
	}
}
