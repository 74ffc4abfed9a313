package grid

// The fleet trace-collection contract: chunked POST /v1/trace uploads
// are idempotent by byte offset, the coordinator's collected journals
// are verbatim copies of the workers' local ones (so the canonical
// merge is byte-identical on either side), and worker metric
// snapshots federate into the coordinator's /metrics.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/gridobs"
	"repro/internal/linelog"
	"repro/internal/obs"
)

// fetchTrace reads a coordinator's merged journal stream to its end.
func fetchTrace(t *testing.T, baseURL, jobID string) []byte {
	t.Helper()
	body, err := FetchTrace(context.Background(), nil, baseURL, jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTraceCollectorIdempotent pins the offset protocol: duplicate,
// overlapping and gapped chunks all converge on one verbatim copy.
func TestTraceCollectorIdempotent(t *testing.T) {
	tc := newTraceCollector(t.TempDir(), nil)
	defer tc.Close()
	chunk1 := []byte("alpha\nbravo\n")
	chunk2 := []byte("charlie\n")

	ack, spans, dup, err := tc.append("", "w1", 0, chunk1)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Have != 12 || ack.Accepted != 12 || ack.Duplicate || dup || spans != 2 {
		t.Fatalf("first append ack = %+v spans %d dup %v", ack, spans, dup)
	}

	// Exact replay: nothing appended, flagged as a duplicate.
	ack, _, dup, err = tc.append("", "w1", 0, chunk1)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Have != 12 || ack.Accepted != 0 || !ack.Duplicate || !dup {
		t.Fatalf("replay ack = %+v dup %v, want duplicate at 12", ack, dup)
	}

	// Overlap: a chunk straddling the collected end appends only the
	// unseen suffix.
	ack, spans, dup, err = tc.append("", "w1", 6, append([]byte("bravo\n"), chunk2...))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Have != 20 || ack.Accepted != 8 || !ack.Duplicate || !dup || spans != 1 {
		t.Fatalf("overlap ack = %+v spans %d dup %v", ack, spans, dup)
	}

	// Gap: an offset past the collected end accepts nothing — the
	// client must rewind to Have.
	ack, _, _, err = tc.append("", "w1", 100, []byte("late\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Have != 20 || ack.Accepted != 0 {
		t.Fatalf("gap ack = %+v, want nothing accepted at 20", ack)
	}

	paths := tc.paths("")
	if len(paths) != 1 {
		t.Fatalf("journals = %v, want 1", paths)
	}
	got, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), chunk1...), chunk2...); !bytes.Equal(got, want) {
		t.Fatalf("collected journal = %q, want %q", got, want)
	}
}

// TestTraceCollectorRestartTruncatesTornTail pins the restart path: a
// collected file with a torn final line is trimmed back to its last
// newline so the resumed offset sits on a record boundary.
func TestTraceCollectorRestartTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	tc := newTraceCollector(dir, nil)
	if _, _, _, err := tc.append("", "w1", 0, []byte("one\ntwo\n")); err != nil {
		t.Fatal(err)
	}
	path := tc.paths("")[0]
	if err := os.WriteFile(path, []byte("one\ntwo\n{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh collector over the same dir — a coordinator restart.
	tc2 := newTraceCollector(dir, nil)
	ack, _, _, err := tc2.append("", "w1", 8, []byte("three\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Have != 14 || ack.Accepted != 6 {
		t.Fatalf("post-restart ack = %+v, want resume at 8 + 6 accepted", ack)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("one\ntwo\nthree\n"); !bytes.Equal(got, want) {
		t.Fatalf("collected journal after restart = %q, want %q", got, want)
	}
}

// TestTraceCollectorFaultedAppend: a chunk whose append meets a full or
// tearing disk is refused with the typed write error and the acked
// offset stays put, so the shipper's re-send converges on a verbatim
// copy of the worker's journal.
func TestTraceCollectorFaultedAppend(t *testing.T) {
	journal := []byte("alpha\nbravo\ncharlie\ndelta\n") // the worker's local file
	for _, tc := range []struct {
		name        string
		short, fail float64
		cause       error
	}{
		{"enospc", 0, 1, syscall.ENOSPC},
		{"short", 1, 0, io.ErrShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := newTraceCollector(t.TempDir(), nil)
			defer col.Close()
			if _, _, _, err := col.append("", "w1", 0, journal[:12]); err != nil {
				t.Fatal(err)
			}
			path := col.paths("")[0]

			restore := linelog.SetWriterSeam(chaos.NewFileFaults(5, tc.short, tc.fail, "trace-w1").Wrap)
			_, _, _, err := col.append("", "w1", 12, journal[12:])
			restore()
			var werr *linelog.WriteError
			if !errors.As(err, &werr) || werr.Path != path || werr.Op != "append" || !errors.Is(err, tc.cause) {
				t.Fatalf("faulted chunk: err = %v, want *linelog.WriteError{Path: %s, Op: append} wrapping %v", err, path, tc.cause)
			}
			if ack, _, _, err := col.append("", "w1", 12, nil); err != nil || ack.Have != 12 {
				t.Fatalf("probe after the fault: ack %+v, %v; want Have still 12", ack, err)
			}

			ack, spans, _, err := col.append("", "w1", 12, journal[12:])
			if err != nil || ack.Have != int64(len(journal)) || ack.Accepted != int64(len(journal)-12) || spans != 2 {
				t.Fatalf("re-sent chunk: ack %+v spans %d, %v", ack, spans, err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, journal) {
				t.Fatalf("collected journal = %q, want the worker's %q", got, journal)
			}
		})
	}
}

// TestTraceShippingEndToEnd runs the tentpole end to end: two traced
// workers sweep one job while shipping their journals, and afterwards
// the coordinator's collected merge is byte-identical to the local
// reference merge, the digest agrees with the work done, and the
// coordinator's /metrics carries the federated per-worker counters
// and latency histograms.
func TestTraceShippingEndToEnd(t *testing.T) {
	spec := gossipSpec(t)
	coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: time.Minute})
	defer coord.Close()
	jobID, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	traceDir := t.TempDir()
	ctx := context.Background()
	names := []string{"shipper1", "shipper2"}
	var wg sync.WaitGroup
	workErrs := make([]error, len(names))
	shippers := make([]*TraceShipper, len(names))
	for i, name := range names {
		rec, err := obs.OpenDir(traceDir, name)
		if err != nil {
			t.Fatal(err)
		}
		metrics := gridobs.NewWorkerMetrics(nil)
		shipper := NewTraceShipper(srv.URL, rec, obs.JournalPath(traceDir, name),
			TraceShipperOptions{Job: jobID, Metrics: metrics, chunkBytes: 2048})
		shippers[i] = shipper
		// Mid-run incremental ship (empty journal: a pure stats probe).
		if err := shipper.Ship(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			workErrs[i] = Work(ctx, srv.URL, "", WorkerOptions{
				Name: name, Workers: 2, TasksPerLease: 2,
				Trace: rec, Metrics: metrics,
			})
			if err := rec.Close(); err != nil && workErrs[i] == nil {
				workErrs[i] = err
			}
		}(i, name)
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Fatalf("worker %s: %v", names[i], err)
		}
	}
	for _, shipper := range shippers {
		// The drain-time final ship, with a small chunk size so multiple
		// round trips exercise offset resumption.
		if err := shipper.Ship(ctx); err != nil {
			t.Fatal(err)
		}
		// A second final ship must be a no-op — everything is collected.
		before := shipper.Offset()
		if err := shipper.Ship(ctx); err != nil {
			t.Fatal(err)
		}
		if shipper.Offset() != before {
			t.Errorf("re-ship moved the offset %d -> %d", before, shipper.Offset())
		}
	}

	// Byte-identity: the coordinator's merged timeline equals the
	// canonical merge of the workers' local journals.
	files, err := obs.JournalFiles(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("local journals = %d, want 2", len(files))
	}
	var local bytes.Buffer
	if _, err := obs.Merge(&local, files...); err != nil {
		t.Fatal(err)
	}
	collected := fetchTrace(t, srv.URL, jobID)
	if !bytes.Equal(collected, local.Bytes()) {
		t.Fatalf("collected merge (%d bytes) != local merge (%d bytes)", len(collected), local.Len())
	}

	// The digest agrees with the sweep.
	digest, err := FetchTraceDigest(ctx, nil, srv.URL, jobID)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := len(spec.Tasks())
	if digest.Journals != 2 {
		t.Errorf("digest journals = %d, want 2", digest.Journals)
	}
	a := digest.Analysis
	if a.Tasks != wantTasks {
		t.Errorf("digest tasks = %d, want %d", a.Tasks, wantTasks)
	}
	// Both workers race for tasks; at least one (typically both) shows
	// up in the utilization table.
	if len(a.Workers) == 0 || a.Wall <= 0 {
		t.Errorf("digest workers/wall = %d/%v", len(a.Workers), a.Wall)
	}
	if len(a.Measures) == 0 || len(a.CriticalPath) == 0 {
		t.Errorf("digest measures/critical path empty: %+v", digest)
	}
	// The digest is obs.Analyze of the same merged bytes, so it survives
	// the wire whole: the served JSON decodes to the local analysis.
	recs, err := obs.LoadReader(bytes.NewReader(collected))
	if err != nil {
		t.Fatal(err)
	}
	if want := *obs.Analyze(recs); !reflect.DeepEqual(a, want) {
		t.Errorf("served digest differs from the local analysis:\n got %+v\nwant %+v", a, want)
	}

	// Federated metrics: trace-ingest counters and per-worker series.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"grid_trace_uploads_total",
		"grid_trace_bytes_total",
		"grid_trace_journals 2",
		`grid_worker_tasks{worker="shipper1"}`,
		`grid_worker_tasks{worker="shipper2"}`,
		`grid_worker_points{worker="shipper1",kind="simulated"}`,
		`grid_worker_task_seconds_count{`,
		`grid_fleet_task_seconds_count{`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}
	// The fleet histogram is the sum of the workers': its count equals
	// the total tasks done.
	if !strings.Contains(text, fmt.Sprintf("grid_trace_spans_total %d", countLines(collected))) {
		t.Errorf("grid_trace_spans_total != %d collected spans:\n%s", countLines(collected), grepLines(text, "grid_trace_"))
	}

	// The dashboard renders a timeline panel for the collected scope.
	dashResp, err := http.Get(srv.URL + "/v1/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer dashResp.Body.Close()
	dash, err := io.ReadAll(dashResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Trace timeline", jobID} {
		if !strings.Contains(string(dash), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestTraceUploadUnknownJob pins the scope validation: shipping into a
// job the coordinator does not know is a 404, not a silent new scope.
func TestTraceUploadUnknownJob(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var ack TraceAck
	_, err := call(context.Background(), nil, http.MethodPost, routeURL(srv.URL, pathTrace, ""),
		TraceUpload{Writer: "w", Job: "gossip-000000000000"}, &ack)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("upload into unknown job: err = %v, want 404", err)
	}
}

// TestFetchTraceStreamsWholeJournal: the client half of GET /v1/trace
// hands over the body as the coordinator sends it — no size at which
// the timeline is silently cut — so every line of a multi-MiB collected
// journal arrives, read as a stream.
func TestFetchTraceStreamsWholeJournal(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	const lines = 40_000 // ≈ 4 MiB, shipped in 400 chunks
	var chunk []byte
	var offset int64
	for i := 1; i <= lines; i++ {
		chunk = fmt.Appendf(chunk, `{"w":"big","id":%d,"name":"task","start_us":%d,"dur_us":7,"attrs":{"task":"performance-%05d-%05d","measure":"performance"}}`+"\n", i, 10*i, i, i+1)
		if i%100 == 0 {
			ack, _, _, err := coord.traces.append("", "big", offset, chunk)
			if err != nil {
				t.Fatal(err)
			}
			offset, chunk = ack.Have, chunk[:0]
		}
	}
	if offset < 4<<20 {
		t.Fatalf("collected journal is %d bytes, want a multi-MiB one", offset)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	body, err := FetchTrace(context.Background(), nil, srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	recs, err := obs.LoadReader(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != lines {
		t.Fatalf("fetched %d records, want all %d", len(recs), lines)
	}
	if last := recs[lines-1].ID; last != lines {
		t.Fatalf("fetched timeline ends at span %d, want %d", last, lines)
	}
}

func countLines(b []byte) int { return bytes.Count(b, []byte{'\n'}) }

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTraceShipperSurvivesCoordinatorOutage: ship errors during an
// outage lose nothing — the journal is append-only and offsets are
// acked — and after a coordinator restart over the same directory the
// collected copy converges byte-identical to the worker's local one.
func TestTraceShipperSurvivesCoordinatorOutage(t *testing.T) {
	dir := t.TempDir()
	coord1 := NewCoordinator(CoordinatorOptions{Dir: dir})

	// A front proxy with a stable URL whose backend we can kill and
	// replace: the worker-side view of a coordinator crash + restart.
	var mu sync.Mutex
	var backend http.Handler = coord1.Handler()
	down := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h, dead := backend, down
		mu.Unlock()
		if dead {
			panic(http.ErrAbortHandler) // sever the connection mid-request
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	traceDir := t.TempDir()
	rec, err := obs.OpenDir(traceDir, "lonely")
	if err != nil {
		t.Fatal(err)
	}
	shipper := NewTraceShipper(srv.URL, rec, obs.JournalPath(traceDir, "lonely"),
		TraceShipperOptions{chunkBytes: 256})

	ctx := context.Background()
	rec.Start(0, "before-outage").End()
	if err := shipper.Ship(ctx); err != nil {
		t.Fatal(err)
	}
	if shipper.Offset() == 0 {
		t.Fatal("nothing collected before the outage")
	}

	// Coordinator dies. Spans keep landing in the local journal; ship
	// passes fail (Run would log and retry) without losing anything.
	mu.Lock()
	down = true
	mu.Unlock()
	rec.Start(0, "during-outage").End()
	if err := shipper.Ship(ctx); err == nil {
		t.Fatal("ship through a dead coordinator should error")
	}

	// Restart over the same directory: the collector resumes from its
	// on-disk copy and the shipper rewinds to the acked Have.
	coord2 := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer coord2.Close()
	mu.Lock()
	backend = coord2.Handler()
	down = false
	mu.Unlock()

	rec.Start(0, "after-restart").End()
	if err := shipper.Ship(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	local, err := os.ReadFile(obs.JournalPath(traceDir, "lonely"))
	if err != nil {
		t.Fatal(err)
	}
	collected := fetchTrace(t, srv.URL, "")
	if !bytes.Equal(collected, local) {
		t.Fatalf("collected journal (%d bytes) != local journal (%d bytes) after outage + restart", len(collected), len(local))
	}
	if !bytes.Contains(collected, []byte("during-outage")) {
		t.Fatal("the span recorded during the outage never made it to the coordinator")
	}
}
