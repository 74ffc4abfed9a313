package gridobs

import (
	"strings"
	"sync"
	"testing"
)

func gather(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("grid_ingests_total", "Results ingested.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g := r.NewGauge("grid_queue_depth", "Pending tasks.")
	g.Set(7)
	g.Add(-1)
	v := r.NewCounterVec("grid_http_requests_total", "Requests by code.", "code")
	v.With("200").Add(3)
	v.With("404").Inc()

	out := gather(r)
	for _, want := range []string{
		"# TYPE grid_ingests_total counter",
		"grid_ingests_total 3",
		"# HELP grid_queue_depth Pending tasks.",
		"grid_queue_depth 6",
		`grid_http_requests_total{code="200"} 3`,
		`grid_http_requests_total{code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name for scraper-friendly diffs.
	if strings.Index(out, "grid_http_requests_total") > strings.Index(out, "grid_ingests_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("grid_lease_latency_seconds", "Lease to ingest.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := gather(r)
	for _, want := range []string{
		"# TYPE grid_lease_latency_seconds histogram",
		`grid_lease_latency_seconds_bucket{le="0.1"} 1`,
		`grid_lease_latency_seconds_bucket{le="1"} 3`,
		`grid_lease_latency_seconds_bucket{le="10"} 4`,
		`grid_lease_latency_seconds_bucket{le="+Inf"} 5`,
		"grid_lease_latency_seconds_sum 56.05",
		"grid_lease_latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestGaugeFuncAndCollectHook(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("grid_live", "Live value.", func() float64 { return 42 })
	depth := r.NewGaugeVec("grid_depth", "Per job.", "job")
	calls := 0
	r.OnCollect(func() {
		calls++
		depth.Reset()
		depth.With("j1").Set(float64(calls))
	})
	out := gather(r)
	if !strings.Contains(out, "grid_live 42") {
		t.Errorf("GaugeFunc value missing:\n%s", out)
	}
	if !strings.Contains(out, `grid_depth{job="j1"} 1`) {
		t.Errorf("collect hook did not run before exposition:\n%s", out)
	}
	out = gather(r)
	if !strings.Contains(out, `grid_depth{job="j1"} 2`) || calls != 2 {
		t.Errorf("collect hook should run once per scrape (calls=%d):\n%s", calls, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeVec("g", "h", "name").With(`a"b\c` + "\nd").Set(1)
	out := gather(r)
	if !strings.Contains(out, `g{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

// TestMetricsRace hammers every type concurrently; run with -race.
func TestMetricsRace(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	g := r.NewGauge("g", "")
	hv := r.NewHistogramVec("h", "", nil, "w")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				c.Inc()
				g.Add(1)
				hv.With([]string{"a", "b"}[i%2]).Observe(float64(k))
				if k%100 == 0 {
					gather(r)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("counter lost updates: %v", c.Value())
	}
	if g.Value() != 4000 {
		t.Errorf("gauge lost updates: %v", g.Value())
	}
}
