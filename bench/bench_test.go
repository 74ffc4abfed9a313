package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// BENCHMARK.json at the repo root is the driver's copy of the metric
// dictionary; this keeps it equal to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program gates %d", len(file.Workloads), len(gated))
	}
	for i, w := range gated {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name/unit too long", d.Name)
		}
		seen[d.Name] = true
	}
}

// The heavy part: a one-second end-to-end run of the cheapest workload
// through the same entry point the driver uses.
func TestSmokeMixedWarmResweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for a second")
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", wlMixedWarmResweep, "-trace", "0", "-seconds", "1",
		"-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	for _, d := range endToEnd {
		if m, ok := last.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v (present %v)", d.Name, m, ok)
		}
	}
	if len(last.Metrics) != len(endToEnd) {
		t.Errorf("result carries %d metrics, want the %d end-to-end ones", len(last.Metrics), len(endToEnd))
	}
	if !strings.Contains(stdout.String(), wlMixedWarmResweep+" failed_share 0 share") {
		t.Errorf("failed_share 0 is not printed:\n%s", &stdout)
	}
}
