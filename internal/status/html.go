package status

import (
	"html/template"
	"net/http"
	"time"

	"skynet/internal/evaluator"
)

// The human-facing face of §7.1's visualization frontend: a minimal,
// dependency-free HTML dashboard at "/" listing incidents by severity with
// their Figure 6 reports inline. Dashboards wanting richer views consume
// /api/incidents instead.

var pageTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="10">
<title>SkyNet incidents</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2rem; background: #101418; color: #d6dde4; }
h1 { font-size: 1.2rem; }
table { border-collapse: collapse; width: 100%; margin-bottom: 1.5rem; }
th, td { text-align: left; padding: .3rem .8rem; border-bottom: 1px solid #2a323a; }
tr.severe td { color: #ff9a62; }
tr.closed td { color: #6b7682; }
pre { background: #171d23; padding: 1rem; overflow-x: auto; border-radius: 4px; }
.sub { color: #8a96a3; }
</style>
</head>
<body>
<h1>SkyNet — incidents</h1>
<p class="sub">{{.Stats.RawIngested}} raw alerts ingested · {{.Stats.Structured}} structured ·
{{.Stats.ActiveIncidents}} active / {{.Stats.ClosedIncidents}} closed incidents · refreshed {{.Now}}</p>
<table>
<tr><th>id</th><th>severity</th><th>state</th><th>root</th><th>zoomed</th><th>alerts</th><th>window</th></tr>
{{range .Incidents}}<tr class="{{.Class}}">
<td><a href="/api/incidents/{{.ID}}">{{.ID}}</a></td>
<td>{{printf "%.1f" .Severity}}</td>
<td>{{.State}}</td>
<td>{{.Root}}</td>
<td>{{.Zoomed}}</td>
<td>{{.AlertCount}}</td>
<td>{{.Window}}</td>
</tr>{{end}}
</table>
{{range .Reports}}<pre>{{.}}</pre>
{{end}}
</body>
</html>
`))

type pageIncident struct {
	ID         int
	Severity   float64
	State      string
	Class      string
	Root       string
	Zoomed     string
	AlertCount int
	Window     string
}

type pageData struct {
	Stats     StatsView
	Now       string
	Incidents []pageIncident
	Reports   []string
}

// indexHandler renders the dashboard.
func (s *Snapshotter) indexHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	data := pageData{
		Stats: StatsView{
			RawIngested:     s.engine.RawIngested(),
			Structured:      s.engine.PreprocessStats().Out,
			ActiveIncidents: s.engine.ActiveCount(),
			ClosedIncidents: s.engine.ClosedCount(),
		},
		Now: time.Now().Format(time.TimeOnly),
	}
	severityThreshold := 10.0
	for _, in := range append(evaluator.Rank(s.engine.Active()), s.engine.Closed()...) {
		end := in.UpdateTime
		state, class := "active", ""
		if !in.End.IsZero() {
			end = in.End
			state, class = "closed", "closed"
		} else if in.Severity >= severityThreshold {
			class = "severe"
		}
		data.Incidents = append(data.Incidents, pageIncident{
			ID:         in.ID,
			Severity:   in.Severity,
			State:      state,
			Class:      class,
			Root:       in.Root.String(),
			Zoomed:     in.Zoomed.String(),
			AlertCount: in.AlertCount(),
			Window: in.Start.Format(time.TimeOnly) + " – " +
				end.Format(time.TimeOnly),
		})
	}
	for _, in := range evaluator.Rank(s.engine.Active()) {
		data.Reports = append(data.Reports, in.Render())
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = pageTmpl.Execute(w, data)
}
