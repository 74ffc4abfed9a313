package grid

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/dsa"
)

// The dashboard is the human view of the same state /metrics exports:
// one self-refreshing HTML page, no JS frameworks, no assets, so it
// works from curl -L, a phone, or a locked-down ops box. It is
// deliberately read-only — operators drive the grid through the API.

type dashboardData struct {
	Now       string
	Uptime    string
	Draining  bool
	Jobs      []dashboardJob
	Workers   []dashboardWorker
	HasCache  bool
	Cache     dsa.CacheStats
	HitRatio  string
	AuthOn    bool
	RateLimit float64
	Traces    []dashboardTrace
}

// dashboardTrace is one collected-trace scope's timeline panel: the
// fleet-wide digest GET /v1/trace?format=digest serves, trimmed for
// the page.
type dashboardTrace struct {
	Scope      string // job ID, or "fleet" for unscoped journals
	Journals   int
	Records    int
	Tasks      int
	Wall       string
	Busy       string
	Workers    []dashboardTraceWorker
	Stragglers []dashboardTraceStraggler
}

type dashboardTraceWorker struct {
	Name        string
	Tasks       int
	Busy        string
	Window      string
	Coverage    float64 // window as % of the scope's wall clock
	Parallelism string
}

type dashboardTraceStraggler struct {
	Worker  string
	Task    string
	Measure string
	Dur     string
	Typical string
	Factor  string
}

type dashboardJob struct {
	ID       string
	Domain   string
	Priority int
	Done     int
	Total    int
	Pending  int
	Leased   int
	Requeues int
	Cached   int
	Granted  int
	Audits   int
	Percent  float64
	ETA      string
	Complete bool
}

type dashboardWorker struct {
	Name        string
	Live        bool
	Quarantined bool
	Leased      int
	Done        uint64
	Failures    uint64
	Latency     string
	FailRate    string
	LastSeen    string
}

func (c *Coordinator) handleDashboard(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	now := c.now()
	data := dashboardData{
		Now:       now.Format(time.RFC3339),
		Uptime:    time.Since(c.started).Round(time.Second).String(),
		Draining:  c.draining,
		AuthOn:    c.opts.AuthToken != "",
		RateLimit: c.opts.RateLimit,
	}
	for _, j := range c.jobsLocked() {
		c.expireLocked(j)
		snap := c.snapshotLocked(j)
		dj := dashboardJob{
			ID: j.id, Domain: j.spec.Domain.Name(), Priority: j.weight,
			Done: snap.Done, Total: snap.Total, Pending: snap.Pending,
			Leased: snap.Leased, Requeues: snap.Requeues, Cached: snap.CacheTasks,
			Granted: snap.LeasesGranted, Audits: snap.Audits, Complete: snap.Complete,
		}
		if snap.Total > 0 {
			dj.Percent = 100 * float64(snap.Done) / float64(snap.Total)
		}
		switch eta := c.etaLocked(j, now); {
		case snap.Complete:
			dj.ETA = "done"
		case math.IsNaN(eta):
			dj.ETA = "—"
		default:
			dj.ETA = (time.Duration(eta * float64(time.Second))).Round(time.Second).String()
		}
		data.Jobs = append(data.Jobs, dj)
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	// Quarantined workers the coordinator never heard from this run
	// (verdict replayed from the WAL) still get a row — an operator
	// must be able to see every standing ban.
	for name := range c.quarantined {
		if _, ok := c.workers[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cutoff := now.Add(-livenessTTLs * c.opts.leaseTTL())
	leased := c.leasedByLocked()
	for _, name := range names {
		ws := c.workers[name]
		if ws == nil {
			data.Workers = append(data.Workers, dashboardWorker{
				Name: name, Quarantined: true, Latency: "—", FailRate: "—", LastSeen: "—",
			})
			continue
		}
		dw := dashboardWorker{
			Name: name, Live: ws.lastSeen.After(cutoff), Leased: leased[name],
			Quarantined: c.quarantined[name],
			Done:        ws.done, Failures: ws.failures,
			LastSeen: now.Sub(ws.lastSeen).Round(time.Second).String() + " ago",
		}
		if ws.latEWMA > 0 {
			dw.Latency = (time.Duration(ws.latEWMA * float64(time.Second))).Round(time.Millisecond).String()
		} else {
			dw.Latency = "—"
		}
		dw.FailRate = formatPercent(ws.failEWMA)
		data.Workers = append(data.Workers, dw)
	}
	if stats, ok := c.cacheStatsLocked(); ok {
		data.HasCache = true
		data.Cache = stats
		if total := stats.Hits + stats.Misses; total > 0 {
			data.HitRatio = formatPercent(float64(stats.Hits) / float64(total))
		} else {
			data.HitRatio = "—"
		}
	}
	c.mu.Unlock()

	// Trace panels read collected journal files (memoised by collected
	// bytes), so they are built outside c.mu.
	data.Traces = c.traceDashboard()

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		c.logfCtx(r.Context(), "grid: dashboard render: %v", err)
	}
}

// traceDashboard builds one timeline/straggler panel per collected
// trace scope from the digest cache.
func (c *Coordinator) traceDashboard() []dashboardTrace {
	var out []dashboardTrace
	for _, scope := range c.traces.scopes() {
		a, journals, err := c.traces.digest(scope)
		if err != nil || a.Records == 0 {
			continue
		}
		dt := dashboardTrace{
			Scope:    scope,
			Journals: journals,
			Records:  a.Records,
			Tasks:    a.Tasks,
			Wall:     a.Wall.Round(time.Millisecond).String(),
			Busy:     a.TaskBusy.Round(time.Millisecond).String(),
		}
		if scope == "" {
			dt.Scope = "fleet"
		}
		for _, ws := range a.Workers {
			dw := dashboardTraceWorker{
				Name:        ws.Writer,
				Tasks:       ws.Tasks,
				Busy:        ws.Busy.Round(time.Millisecond).String(),
				Window:      ws.Window.Round(time.Millisecond).String(),
				Parallelism: fmt.Sprintf("%.2f", ws.Parallelism),
			}
			if a.Wall > 0 {
				dw.Coverage = math.Min(100, 100*float64(ws.Window)/float64(a.Wall))
			}
			dt.Workers = append(dt.Workers, dw)
		}
		for i, st := range a.Stragglers {
			if i == 5 {
				break
			}
			dt.Stragglers = append(dt.Stragglers, dashboardTraceStraggler{
				Worker:  st.Record.Writer,
				Task:    st.Record.AttrStr("task"),
				Measure: st.Measure,
				Dur:     st.Dur.Round(time.Millisecond).String(),
				Typical: st.Typical.Round(time.Millisecond).String(),
				Factor:  fmt.Sprintf("%.1fx", st.Factor),
			})
		}
		out = append(out, dt)
	}
	return out
}

func formatPercent(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>dsa-grid dashboard</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #1a1a1a; background: #fafafa; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.8rem; }
table { border-collapse: collapse; background: #fff; box-shadow: 0 1px 2px rgba(0,0,0,.08); }
th, td { padding: .35rem .7rem; border: 1px solid #e2e2e2; text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f0f0f0; }
.bar { background: #e8e8e8; border-radius: 3px; width: 10rem; height: .8rem; display: inline-block; vertical-align: middle; }
.bar > i { background: #4a90d9; border-radius: 3px; height: 100%; display: block; }
.done .bar > i { background: #3cab5a; }
.pill { padding: .1rem .5rem; border-radius: 999px; font-size: .8rem; }
.live { background: #d9f2e0; color: #1e7a3c; } .dead { background: #f7d9d9; color: #9b2c2c; }
.quarantined { background: #2b2b2b; color: #ffb3b3; }
.drain { background: #fff3cd; border: 1px solid #e6cf7a; padding: .6rem 1rem; border-radius: 4px; margin: 1rem 0; }
.meta { color: #666; font-size: .85rem; }
</style>
</head>
<body>
<h1>dsa-grid coordinator</h1>
<p class="meta">up {{.Uptime}} · {{.Now}} · auth {{if .AuthOn}}on{{else}}off{{end}} · rate limit {{if .RateLimit}}{{.RateLimit}}/s per client{{else}}off{{end}} · <a href="/metrics">/metrics</a></p>
{{if .Draining}}<div class="drain">Draining: no new leases; the coordinator exits once in-flight leases settle.</div>{{end}}

<h2>Jobs</h2>
{{if .Jobs}}
<table>
<tr><th>job</th><th>domain</th><th>priority</th><th>progress</th><th>done</th><th>pending</th><th>leased</th><th>requeues</th><th>cache-served</th><th>granted</th><th>audits</th><th>ETA</th></tr>
{{range .Jobs}}
<tr{{if .Complete}} class="done"{{end}}>
<td><code>{{.ID}}</code></td><td>{{.Domain}}</td><td>{{.Priority}}</td>
<td><span class="bar"><i style="width:{{printf "%.1f" .Percent}}%"></i></span> {{printf "%.1f" .Percent}}%</td>
<td>{{.Done}}/{{.Total}}</td><td>{{.Pending}}</td><td>{{.Leased}}</td><td>{{.Requeues}}</td><td>{{.Cached}}</td><td>{{.Granted}}</td><td>{{.Audits}}</td><td>{{.ETA}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="meta">No jobs registered.</p>{{end}}

<h2>Workers</h2>
{{if .Workers}}
<table>
<tr><th>worker</th><th>status</th><th>on lease</th><th>done</th><th>expiries</th><th>latency (EWMA)</th><th>failure rate (EWMA)</th><th>last seen</th></tr>
{{range .Workers}}
<tr>
<td><code>{{.Name}}</code></td>
<td>{{if .Quarantined}}<span class="pill quarantined">quarantined</span>{{else if .Live}}<span class="pill live">live</span>{{else}}<span class="pill dead">gone</span>{{end}}</td>
<td>{{.Leased}}</td><td>{{.Done}}</td><td>{{.Failures}}</td><td>{{.Latency}}</td><td>{{.FailRate}}</td><td>{{.LastSeen}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="meta">No workers seen yet.</p>{{end}}

{{range .Traces}}
<h2>Trace timeline — <code>{{.Scope}}</code></h2>
<p class="meta">{{.Records}} spans from {{.Journals}} shipped journals · {{.Tasks}} tasks · wall {{.Wall}} · task busy {{.Busy}} · <a href="/v1/trace{{if ne .Scope "fleet"}}?job={{.Scope}}{{end}}">merged journal</a></p>
<table>
<tr><th>worker</th><th>tasks</th><th>busy</th><th>active window</th><th>window vs wall</th><th>parallelism</th></tr>
{{range .Workers}}
<tr>
<td><code>{{.Name}}</code></td><td>{{.Tasks}}</td><td>{{.Busy}}</td><td>{{.Window}}</td>
<td><span class="bar"><i style="width:{{printf "%.1f" .Coverage}}%"></i></span> {{printf "%.1f" .Coverage}}%</td>
<td>{{.Parallelism}}</td>
</tr>
{{end}}
</table>
{{if .Stragglers}}
<h3 class="meta">Stragglers</h3>
<table>
<tr><th>worker</th><th>task</th><th>measure</th><th>duration</th><th>typical</th><th>factor</th></tr>
{{range .Stragglers}}
<tr><td><code>{{.Worker}}</code></td><td><code>{{.Task}}</code></td><td>{{.Measure}}</td><td>{{.Dur}}</td><td>{{.Typical}}</td><td>{{.Factor}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}

{{if .HasCache}}
<h2>Score cache</h2>
<table>
<tr><th>entries</th><th>hits</th><th>misses</th><th>hit ratio</th><th>puts</th><th>evictions</th></tr>
<tr><td>{{.Cache.Entries}}</td><td>{{.Cache.Hits}}</td><td>{{.Cache.Misses}}</td><td>{{.HitRatio}}</td><td>{{.Cache.Puts}}</td><td>{{.Cache.Evictions}}</td></tr>
</table>
{{end}}
</body>
</html>
`))
