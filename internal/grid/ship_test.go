package grid

// The fleet trace-collection contract: chunked POST /v1/trace uploads
// are idempotent by byte offset, the coordinator's collected journals
// are verbatim copies of the workers' local ones (so the canonical
// merge is byte-identical on either side), and the coordinator's
// per-worker /metrics series are built from the collected spans.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/gridobs"
	"repro/internal/job"
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

// FuzzTraceIngest feeds the collector a sequence of chunk uploads decoded
// from the input — scope, writer name, offset relative to what that stream
// holds, data — and checks after each one: no panic, every collected file
// is whole lines and as long as the last Have acked for it, no two streams
// share a file, and an upload the collector refuses changes nothing.
func FuzzTraceIngest(f *testing.F) {
	// One upload: a header (bit 0 the scope, bits 1-3 the writer's length,
	// bits 4-7 the data's), the writer, the offset as a signed byte past
	// what the stream holds, the data.
	up := func(scope byte, writer string, delta int8, data string) []byte {
		b := append([]byte{scope | byte(len(writer))<<1 | byte(len(data))<<4}, writer...)
		return append(append(b, byte(delta)), data...)
	}
	cat := func(ups ...[]byte) []byte { return bytes.Join(ups, nil) }
	f.Add(cat(up(0, "w", 0, "alpha\nbravo\n"), up(0, "w", -12, "alpha\nbravo\n"), up(0, "w", -6, "bravo\ncharlie\n"), up(0, "w", 5, "late\n")))
	f.Add(cat(up(0, "a_b", 0, "{\"n\":1}\n"), up(0, "a b", 0, "{\"n\":2}\n"), up(1, "a_b", 0, "{\"n\":3}\n")))
	f.Add(cat(up(1, "z", 0, `{"name":"z"`), up(1, "z", 0, "\"}\n"), up(0, "", 0, "x\n"), up(0, "writer", 0, "y\n")))
	scopes := []string{"", "gossip-000000000001"}
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		tc := newTraceCollector(dir, nil)
		defer tc.Close()
		next := func(n int) []byte {
			b := in[:min(n, len(in))]
			in = in[len(b):]
			return b
		}
		files := func() string {
			var sb strings.Builder
			for _, scope := range scopes {
				ents, _ := os.ReadDir(filepath.Join(dir, scopeName(scope), "trace"))
				for _, e := range ents {
					info, _ := e.Info()
					fmt.Fprintf(&sb, "%s/%s %d\n", scope, e.Name(), info.Size())
				}
			}
			return sb.String()
		}
		have := map[traceKey]int64{}
		for len(in) > 0 {
			h := next(1)[0]
			key := traceKey{scopes[h&1], string(next(int(h >> 1 & 7)))}
			offset := have[key]
			if d := next(1); len(d) > 0 {
				offset += int64(int8(d[0]))
			}
			data := next(int(h >> 4))
			before := files()
			ack, _, _, err := tc.append(key.job, key.writer, offset, data)
			if err != nil {
				if after := files(); after != before {
					t.Fatalf("refused %+v (%v) and still changed the collected files:\n%s\nto\n%s", key, err, before, after)
				}
				continue
			}
			have[key] = ack.Have
			seen := map[string]traceKey{}
			for k, j := range tc.journals {
				data, err := os.ReadFile(j.log.Path())
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(data)) != have[k] || (len(data) > 0 && data[len(data)-1] != '\n') {
					t.Fatalf("stream %+v: collected %q, last acked Have %d", k, data, have[k])
				}
				if other, shared := seen[j.log.Path()]; shared {
					t.Fatalf("streams %+v and %+v share %s", other, k, j.log.Path())
				}
				seen[j.log.Path()] = k
			}
		}
	})
}

// TestTraceShippingEndToEnd runs the tentpole end to end: two traced
// workers sweep one job while shipping their journals, and afterwards
// the coordinator's collected merge is byte-identical to the local
// reference merge, the digest agrees with the work done, and the
// coordinator's /metrics carries per-worker counters and latency
// histograms that count the collected task spans.
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
			TraceShipperOptions{Job: jobID, chunkBytes: 2048})
		shippers[i] = shipper
		// An incremental ship with nothing recorded yet sends nothing.
		if err := shipper.Ship(ctx); err != nil || shipper.Offset() != 0 {
			t.Fatalf("ship of an empty journal: offset %d, %v", shipper.Offset(), err)
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

	// Trace-ingest counters, and per-worker series that count the
	// collected task spans of whichever worker ran tasks.
	text := scrape(t, srv.URL)
	want := []string{
		"grid_trace_uploads_total",
		"grid_trace_bytes_total",
		"grid_trace_journals 2",
		fmt.Sprintf("grid_trace_spans_total %d", countLines(collected)),
	}
	tasksBy := map[string]int{}
	for _, r := range recs {
		if r.Name == "task" {
			tasksBy[r.Writer]++
		}
	}
	for w, n := range tasksBy {
		want = append(want,
			fmt.Sprintf(`grid_worker_tasks{worker="%s"} %d`, w, n),
			fmt.Sprintf(`grid_worker_points{worker="%s",kind="simulated"}`, w),
			fmt.Sprintf(`grid_worker_task_seconds_count{worker="%s",measure=`, w))
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("coordinator /metrics missing %q:\n%s", w, grepLines(text, "grid_"))
		}
	}
	// The fleet histogram holds every task once.
	if got := sumSamples(text, "grid_fleet_task_seconds_count{"); got != float64(wantTasks) {
		t.Errorf("grid_fleet_task_seconds counts sum to %v, want %d tasks", got, wantTasks)
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

// TestShippedSpansCannotLowerSeries: the counts and durations of a
// collected task span are the worker's word, so a negative one counts as
// 0. Unclamped, the second span of this chunk took grid_worker_points
// below the first span's counts and recorded negative task seconds.
func TestShippedSpansCannotLowerSeries(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	chunk := `{"w":"liar","id":1,"name":"task","start_us":0,"dur_us":7,"attrs":{"measure":"performance","simulated":5,"cache_hits":3,"elapsed_us":2000}}` + "\n" +
		`{"w":"liar","id":2,"name":"task","start_us":10,"dur_us":7,"attrs":{"measure":"performance","simulated":-50,"cache_hits":-30,"elapsed_us":-9000000}}` + "\n"
	var ack TraceAck
	if _, err := call(context.Background(), nil, http.MethodPost, routeURL(srv.URL, pathTrace, ""),
		TraceUpload{Writer: "liar", Data: []byte(chunk)}, &ack); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, srv.URL)
	for prefix, want := range map[string]float64{
		`grid_worker_tasks{worker="liar"}`:                                  2,
		`grid_worker_points{worker="liar",kind="simulated"}`:                5,
		`grid_worker_points{worker="liar",kind="cache_served"}`:             3,
		`grid_worker_task_seconds_sum{worker="liar",measure="performance"}`: 0.002,
		`grid_fleet_task_seconds_sum{measure="performance"}`:                0.002,
	} {
		if got := sumSamples(text, prefix); got != want {
			t.Errorf("%s = %v, want %v:\n%s", prefix, got, want, grepLines(text, "liar"))
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

// deadlineProbe is a transport that records whether requests to host
// carry a deadline, then sends them on.
type deadlineProbe struct {
	host string
	base http.RoundTripper

	mu                  sync.Mutex
	requests, deadlined int
}

func (p *deadlineProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == p.host {
		_, ok := req.Context().Deadline()
		p.mu.Lock()
		p.requests++
		if ok {
			p.deadlined++
		}
		p.mu.Unlock()
	}
	return p.base.RoundTrip(req)
}

// TestFetchTraceStreamHasNoDeadline pins FetchTrace's promise to stream
// "as long as the coordinator sends it": with a nil client its request
// carries no deadline the caller did not set. Streaming through
// defaultClient put one DefaultHTTPTimeout out (its Timeout covers the
// body too), so `dsa-report trace URL -merged` died after 60 s of body.
// The caller's ctx still ends the stream.
func TestFetchTraceStreamHasNoDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{}\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // a journal still being sent
	}))
	defer srv.Close()
	probe := &deadlineProbe{host: srv.Listener.Addr().String(), base: http.DefaultTransport}
	http.DefaultTransport = probe // what a client without a Transport sends through
	defer func() { http.DefaultTransport = probe.base }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, err := FetchTrace(ctx, nil, srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	probe.mu.Lock()
	requests, deadlined := probe.requests, probe.deadlined
	probe.mu.Unlock()
	if requests != 1 || deadlined != 0 {
		t.Fatalf("%d requests, %d with a deadline; want 1 request without one", requests, deadlined)
	}
	first := make([]byte, 3)
	if _, err := io.ReadFull(body, first); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := io.ReadAll(body); err == nil {
		t.Fatal("the stream outlived its context")
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

// scrape reads a coordinator's /metrics exposition.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sumSamples adds up the values of the exposition lines starting with
// prefix.
func sumSamples(text, prefix string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}

// workerSeries is what a coordinator's metrics say about one worker.
type workerSeries struct {
	Tasks, Simulated, Cached, Retries float64
	TaskSeconds                       map[string]uint64 // observations by measure
}

func seriesOf(c *Coordinator, worker string) workerSeries {
	m := c.metrics
	s := workerSeries{
		Tasks:       m.workerTasks.With(worker).Value(),
		Simulated:   m.workerPoints.With(worker, "simulated").Value(),
		Cached:      m.workerPoints.With(worker, "cache_served").Value(),
		Retries:     m.workerRetries.With(worker).Value(),
		TaskSeconds: map[string]uint64{},
	}
	m.workerTaskSeconds.Each(func(vals []string, h *gridobs.Histogram) {
		if vals[0] == worker {
			s.TaskSeconds[vals[1]] = h.Count()
		}
	})
	return s
}

// shipSweep runs one traced worker through a whole gossip job on a fresh
// coordinator, then ships its journal as dsa-grid work does on exit.
func shipSweep(t *testing.T, opts WorkerOptions) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: time.Minute})
	t.Cleanup(func() { coord.Close() })
	jobID, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	traceDir := t.TempDir()
	rec, err := obs.OpenDir(traceDir, opts.Name)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = rec
	ctx := context.Background()
	if err := Work(ctx, srv.URL, jobID, opts); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	shipper := NewTraceShipper(srv.URL, rec, obs.JournalPath(traceDir, opts.Name), TraceShipperOptions{Job: jobID})
	if err := shipper.Ship(ctx); err != nil {
		t.Fatal(err)
	}
	return coord, srv.URL
}

// TestShippedSpansNeedNoWorkerMetrics: a worker that ships its journal
// but keeps no metrics of its own still has its series on the
// coordinator.
func TestShippedSpansNeedNoWorkerMetrics(t *testing.T) {
	_, url := shipSweep(t, WorkerOptions{Name: "bare", Workers: 2})
	text := scrape(t, url)
	tasks := len(gossipSpec(t).Tasks())
	for _, want := range []string{
		fmt.Sprintf(`grid_worker_tasks{worker="bare"} %d`, tasks),
		`grid_worker_task_seconds_count{worker="bare",measure=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator /metrics missing %q:\n%s", want, grepLines(text, "grid_worker_"))
		}
	}
	if got := sumSamples(text, `grid_worker_task_seconds_count{worker="bare",`); got != float64(tasks) {
		t.Errorf("task_seconds counts sum to %v, want %d", got, tasks)
	}
}

// retryEveryUpload answers the first attempt of every results upload
// with a 503, so each upload span records two attempts.
type retryEveryUpload struct{}

func (retryEveryUpload) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/results") && req.Header.Get(HeaderRetryAttempt) == "" {
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestShippedSpansMatchWorkerMetrics is the differential check: what the
// coordinator builds from one worker's shipped spans — tasks, simulated
// and cache-served points, upload retries, task_seconds observations per
// measure — equals that worker's own WorkerMetrics.
func TestShippedSpansMatchWorkerMetrics(t *testing.T) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	defer func() { retryDelay = orig }()

	// Warm a cache with half the points, so the worker both simulates and
	// serves from cache.
	spec := gossipSpec(t)
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	half := spec.Points[:len(spec.Points)/2]
	if _, err := job.Run(context.Background(), spec.Domain, half, spec.Cfg, job.Options{Chunk: spec.Chunk, Cache: store}); err != nil {
		t.Fatal(err)
	}

	metrics := gridobs.NewWorkerMetrics(nil)
	coord, _ := shipSweep(t, WorkerOptions{
		Name: "metered", Workers: 2, Cache: store, Metrics: metrics,
		Client: &http.Client{Transport: retryEveryUpload{}},
	})
	snap := metrics.Snapshot()
	want := workerSeries{
		Tasks: snap.Tasks, Simulated: snap.PointsSimulated, Cached: snap.PointsCached,
		Retries: snap.UploadRetries, TaskSeconds: map[string]uint64{},
	}
	for measure, h := range snap.TaskSeconds {
		want.TaskSeconds[measure] = h.Count
	}
	if want.Simulated == 0 || want.Cached == 0 || want.Retries == 0 {
		t.Fatalf("worker metrics %+v: the run should simulate, hit the cache and retry", want)
	}
	if got := seriesOf(coord, "metered"); !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator series from spans = %+v\nworker's own metrics       = %+v", got, want)
	}
}

// TestTraceShipperSurvivesCoordinatorOutage: ship errors during an
// outage lose nothing — the journal is append-only and offsets are
// acked — and after a coordinator restart over the same directory the
// collected copy converges byte-identical to the worker's local one, and
// the restarted coordinator's per-worker series count every task span of
// it exactly once.
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
	task := func(measure string) {
		rec.Start(0, "task").Str("measure", measure).Int("cache_hits", 1).
			Int("simulated", 2).Int("elapsed_us", 1500).End()
	}

	ctx := context.Background()
	rec.Start(0, "before-outage").End()
	task("performance")
	rec.Start(0, "upload").Int("attempts", 3).End()
	if err := shipper.Ship(ctx); err != nil {
		t.Fatal(err)
	}
	if shipper.Offset() == 0 {
		t.Fatal("nothing collected before the outage")
	}
	want := workerSeries{Tasks: 1, Simulated: 2, Cached: 1, Retries: 2, TaskSeconds: map[string]uint64{"performance": 1}}
	if got := seriesOf(coord1, "lonely"); !reflect.DeepEqual(got, want) {
		t.Fatalf("series before the outage = %+v, want %+v", got, want)
	}

	// Coordinator dies. Spans keep landing in the local journal; ship
	// passes fail (Run would log and retry) without losing anything.
	mu.Lock()
	down = true
	mu.Unlock()
	rec.Start(0, "during-outage").End()
	task("robustness")
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
	task("performance")
	if err := shipper.Ship(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// The journal reopened after the restart counts what it held once,
	// and the chunks shipped since on top of it.
	want = workerSeries{Tasks: 3, Simulated: 6, Cached: 3, Retries: 2, TaskSeconds: map[string]uint64{"performance": 2, "robustness": 1}}
	if got := seriesOf(coord2, "lonely"); !reflect.DeepEqual(got, want) {
		t.Fatalf("series after the restart = %+v, want %+v", got, want)
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
