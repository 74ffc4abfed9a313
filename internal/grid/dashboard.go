package grid

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The dashboard is the human view of the same state /metrics exports:
// one self-refreshing HTML page, no JS frameworks, no assets, so it
// works from curl -L, a phone, or a locked-down ops box. It is
// deliberately read-only — operators drive the grid through the API. It
// renders the read model (view.go) and each collected trace scope's
// obs.Analysis as they are; the template's helpers only format.

type dashboardData struct {
	view
	Uptime time.Duration
	AuthOn bool
	Traces []tracePanel
}

// tracePanel is one collected-trace scope's timeline: the digest
// GET /v1/trace?format=digest serves.
type tracePanel struct {
	Scope    string // job ID, or "" for the fleet scope's unscoped journals
	Journals int
	*obs.Analysis
}

func (c *Coordinator) serveDashboard(w http.ResponseWriter, r *http.Request) {
	data := dashboardData{
		view: c.liveView(), Uptime: time.Since(c.started),
		AuthOn: c.opts.AuthToken != "",
	}
	// Trace panels read collected journal files (memoised by collected
	// bytes), so they are built outside c.mu.
	for _, scope := range c.traces.scopes() {
		if a, journals, err := c.traces.digest(scope); err == nil && a.Records > 0 {
			data.Traces = append(data.Traces, tracePanel{scope, journals, a})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		c.log.Error("dashboard render failed", "rid", requestID(r.Context()), "err", err)
	}
}

func formatPercent(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

var dashboardFuncs = template.FuncMap{
	"percent": formatPercent,
	"share": func(part, whole int) float64 { // part as % of whole, 0 of nothing
		if whole <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	},
	"cover": func(window, wall time.Duration) float64 { // window as % of the scope's wall clock
		if wall <= 0 {
			return 0
		}
		return math.Min(100, 100*float64(window)/float64(wall))
	},
	"ms":  func(d time.Duration) time.Duration { return d.Round(time.Millisecond) },
	"sec": func(d time.Duration) time.Duration { return d.Round(time.Second) },
	"eta": func(jv jobView) string {
		switch {
		case jv.Complete:
			return "done"
		case math.IsNaN(jv.ETA):
			return "—"
		}
		return time.Duration(jv.ETA * float64(time.Second)).Round(time.Second).String()
	},
	"latency": func(seconds float64) string {
		if seconds <= 0 {
			return "—"
		}
		return time.Duration(seconds * float64(time.Second)).Round(time.Millisecond).String()
	},
	"top": func(s []obs.Straggler) []obs.Straggler { return s[:min(len(s), 5)] },
}

var dashboardTmpl = template.Must(template.New("dashboard").Funcs(dashboardFuncs).Parse(`<!DOCTYPE html>
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
<p class="meta">up {{sec .Uptime}} · {{.Now.Format "2006-01-02T15:04:05Z07:00"}} · auth {{if .AuthOn}}on{{else}}off{{end}} · <a href="/metrics">/metrics</a></p>
{{if .Draining}}<div class="drain">Draining: no new leases; the coordinator exits once in-flight leases settle.</div>{{end}}

<h2>Jobs</h2>
{{if .Jobs}}
<table>
<tr><th>job</th><th>domain</th><th>progress</th><th>done</th><th>pending</th><th>leased</th><th>requeues</th><th>cache-served</th><th>granted</th><th>audits</th><th>ETA</th></tr>
{{range .Jobs}}
<tr{{if .Complete}} class="done"{{end}}>
<td><code>{{.JobID}}</code></td><td>{{.Domain}}</td>
{{$p := share .Done .Total}}<td><span class="bar"><i style="width:{{printf "%.1f" $p}}%"></i></span> {{printf "%.1f" $p}}%</td>
<td>{{.Done}}/{{.Total}}</td><td>{{.Pending}}</td><td>{{.Leased}}</td><td>{{.Requeues}}</td><td>{{.CacheTasks}}</td><td>{{.LeasesGranted}}</td><td>{{.Audits}}</td><td>{{eta .}}</td>
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
{{if .Heard}}<td>{{.Leased}}</td><td>{{.Done}}</td><td>{{.Failures}}</td><td>{{latency .Latency}}</td><td>{{percent .FailRate}}</td><td>{{sec ($.Now.Sub .LastSeen)}} ago</td>
{{else}}<td>0</td><td>0</td><td>0</td><td>—</td><td>—</td><td>—</td>{{end}}
</tr>
{{end}}
</table>
{{else}}<p class="meta">No workers seen yet.</p>{{end}}

{{range .Traces}}{{$wall := .Wall}}
<h2>Trace timeline — <code>{{or .Scope "fleet"}}</code></h2>
<p class="meta">{{.Records}} spans from {{.Journals}} shipped journals · {{.Tasks}} tasks · wall {{ms .Wall}} · task busy {{ms .TaskBusy}} · <a href="/v1/trace{{if .Scope}}?job={{.Scope}}{{end}}">merged journal</a></p>
<table>
<tr><th>worker</th><th>tasks</th><th>busy</th><th>active window</th><th>window vs wall</th><th>parallelism</th></tr>
{{range .Workers}}
<tr>
<td><code>{{.Writer}}</code></td><td>{{.Tasks}}</td><td>{{ms .Busy}}</td><td>{{ms .Window}}</td>
{{$p := cover .Window $wall}}<td><span class="bar"><i style="width:{{printf "%.1f" $p}}%"></i></span> {{printf "%.1f" $p}}%</td>
<td>{{printf "%.2f" .Parallelism}}</td>
</tr>
{{end}}
</table>
{{if .Stragglers}}
<h3 class="meta">Stragglers</h3>
<table>
<tr><th>worker</th><th>task</th><th>measure</th><th>duration</th><th>typical</th><th>factor</th></tr>
{{range top .Stragglers}}
<tr><td><code>{{.Record.Writer}}</code></td><td><code>{{.Record.AttrStr "task"}}</code></td><td>{{.Measure}}</td><td>{{ms .Dur}}</td><td>{{ms .Typical}}</td><td>{{printf "%.1fx" .Factor}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}

{{if .HasCache}}
<h2>Score cache</h2>
<table>
<tr><th>entries</th><th>hits</th><th>misses</th><th>hit ratio</th><th>puts</th></tr>
<tr><td>{{.Cache.Entries}}</td><td>{{.Cache.Hits}}</td><td>{{.Cache.Misses}}</td><td>{{percent $.HitRatio}}</td><td>{{.Cache.Puts}}</td></tr>
</table>
{{end}}
</body>
</html>
`))
